"""Bundled run scheduler: many simulations per worker job.

Dispatching every run as its own worker job pays pickle, dispatch,
result marshalling and cache probing per run, which at screen-sized
windows rivals the simulation itself.  :class:`ContinuationJob` packs
many :class:`~repro.runner.jobs.SimJob` runs into one worker job
instead and executes each exactly as per-job dispatch would, so a
bundled run is bit-identical to the same SimJob run alone. The
experiment sweep partitions its run plans — full-length continuations
*and* exact-mode screens — into one bundle per worker with
:func:`plan_bundles`; :func:`run_bundled` wraps the round trip and
hands results back in original run order via :func:`unbundle_results`.

Runs are assigned round-robin: one (configuration, workload) pair's
BEST/HEUR/WORST runs (or a pair's screen candidates) land in different
bundles, which balances the expensive pairs across workers (traces and
warm snapshots are shared through the runner's content-addressed stores
either way).  Inside its worker a bundle runs workload by workload
(grouped by trace set), so the worker's bounded trace and warm memos
hold one workload at a time.  A bundle is the unit of dispatch and of
retry: a timed-out bundle retries whole on the pool.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    ClassVar,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.simulation import SimResult
from repro.runner.jobs import SimJob, TraceUnit

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runner.cache import ResultCache

__all__ = [
    "ContinuationJob",
    "plan_bundles",
    "run_bundled",
    "unbundle_results",
]


@dataclass(frozen=True)
class ContinuationJob:
    """A bundle of runs executed inside one worker.

    ``execute()`` runs the bundle grouped by trace set: every run of the
    first workload (in run order), then every run of the next, and so
    on. The process trace and warm memos are small LRUs, so a bundle
    that interleaved its workloads would evict and reload them run
    after run; grouped, each workload's traces and warm snapshot are
    loaded once per bundle and the worker holds one workload at a time.
    Results are returned in run order, one
    :class:`~repro.core.simulation.SimResult` per run, and do not depend
    on execution order (every run is a pure function of its identity).
    The result cache operates per *run*, not per bundle (each
    :class:`~repro.runner.jobs.SimJob` caches under its own identity),
    so reuse survives re-bundling; the bundle itself never presents an
    identity to the cache.
    """

    runs: Tuple[SimJob, ...]

    #: BatchRunner parallelizes batches of heavy jobs at 2+ jobs (a
    #: bundle amortizes its dispatch overhead by construction).
    heavy: ClassVar[bool] = True

    def execute(
        self, cache: Optional["ResultCache"] = None
    ) -> Tuple[SimResult, ...]:
        groups: Dict[Tuple[Tuple[str, int, int], ...], List[int]] = {}
        for i, run in enumerate(self.runs):
            groups.setdefault(tuple(run.trace_triples()), []).append(i)
        results: List[Optional[SimResult]] = [None] * len(self.runs)
        for indices in groups.values():
            for i in indices:
                results[i] = self.runs[i].execute(cache)
        return tuple(results)

    def trace_manifest(self) -> Tuple[TraceUnit, ...]:
        """One :class:`~repro.runner.jobs.TraceUnit` per bundled run (the
        runner's pre-pack pass dedups triples and warm sets itself)."""
        return tuple(unit for run in self.runs for unit in run.trace_manifest())


def plan_bundles(
    runs: Sequence[SimJob], bundle_count: int
) -> List[ContinuationJob]:
    """Partition ``runs`` into at most ``bundle_count`` bundles.

    Round-robin assignment: ``runs[i]`` lands in bundle ``i % n``, so one
    pair's BEST/HEUR/WORST runs (or screen candidates) spread across
    bundles (cost balance) and the bundles partition the plan exactly —
    every run appears in exactly one bundle, in its original relative
    order. Deterministic in (runs, bundle_count); empty input produces no
    bundles.
    """
    if bundle_count < 1:
        raise ValueError("bundle_count must be >= 1")
    n = min(len(runs), bundle_count)
    if n == 0:
        return []
    buckets: List[List[SimJob]] = [[] for _ in range(n)]
    for i, run in enumerate(runs):
        buckets[i % n].append(run)
    return [ContinuationJob(runs=tuple(b)) for b in buckets]


def unbundle_results(
    bundle_results: Sequence[Tuple[SimResult, ...]], run_count: int
) -> List[SimResult]:
    """Invert :func:`plan_bundles`: flatten per-bundle result tuples back
    into original run order (bundle ``b`` owns runs ``b::n``)."""
    out: List[Optional[SimResult]] = [None] * run_count
    n = len(bundle_results)
    for b, results in enumerate(bundle_results):
        for i, r in zip(range(b, run_count, n), results):
            out[i] = r
    return out


def run_bundled(runner, runs: Sequence[SimJob]) -> List[SimResult]:
    """Execute ``runs`` as one round-robin bundle per ``runner`` worker and
    return results in original run order — bit-identical to per-run
    dispatch (pinned by ``tests/runner/test_continuation.py``).
    """
    jobs = plan_bundles(runs, runner.workers)
    return unbundle_results(runner.run(jobs), len(runs))
