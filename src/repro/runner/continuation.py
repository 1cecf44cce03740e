"""Bundled run scheduler: many simulations per worker job.

Dispatching every run as its own worker job pays pickle, dispatch,
result marshalling and cache probing per run, which at screen-sized
windows rivals the simulation itself.  :class:`ContinuationJob` packs
many runs into one worker job instead: each :class:`ContinuationRun`
executes exactly the :class:`~repro.runner.jobs.SimJob` it replaces
(``as_sim_job`` — one shared implementation, zero drift surface), so a
bundled run is bit-identical to per-job dispatch. The experiment sweep
partitions its run plans — full-length continuations *and* exact-mode
screens — into one bundle per worker with :func:`plan_bundles`;
:func:`run_bundled` wraps the round trip and hands results back in
original run order via :func:`unbundle_results`.

Runs are assigned round-robin: one (configuration, workload) pair's
BEST/HEUR/WORST runs (or a pair's screen candidates) land in different
bundles, which balances the expensive pairs across workers (traces and
warm snapshots are shared through the runner's content-addressed stores
either way).  A bundle is the unit of dispatch and of tail rescue: a
timed-out bundle retries whole on the local pool, and a straggling one
gets a whole speculative twin on the worker fleet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar, List, Optional, Sequence, Tuple, Union

from repro.core.config import MicroarchConfig
from repro.core.simulation import (
    SimResult,
    default_trace_length,
    resolve_trace_triples,
)
from repro.runner.jobs import TraceUnit

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runner.cache import ResultCache

__all__ = [
    "ContinuationRun",
    "ContinuationJob",
    "plan_bundles",
    "run_bundled",
    "unbundle_results",
]


@dataclass(frozen=True)
class ContinuationRun:
    """One run riding inside a :class:`ContinuationJob`.

    The field set mirrors :class:`~repro.runner.jobs.SimJob` (warm-up
    always on, no cycle cap — the experiment drivers' bundled runs never
    use either knob), so a run's identity is exactly the SimJob it
    replaces. ``commit_target`` is the full-length window for
    continuation runs and the screen window for bundled exact-mode
    screens — the scheduling is identical.
    """

    config: Union[str, MicroarchConfig]
    benchmarks: Tuple[str, ...]
    mapping: Tuple[int, ...]
    commit_target: int
    trace_length: Optional[int] = None
    seed: int = 0

    def execute(self, cache: Optional["ResultCache"] = None) -> SimResult:
        """Run to the commit target — by definition the SimJob this run
        replaces (one shared implementation, zero drift surface)."""
        return self.as_sim_job().execute(cache)

    def trace_triples(self) -> List[Tuple[str, int, int]]:
        length = (
            self.trace_length
            if self.trace_length is not None
            else default_trace_length(self.commit_target)
        )
        return resolve_trace_triples(self.benchmarks, length, self.seed)

    def as_sim_job(self):
        """The :class:`~repro.runner.jobs.SimJob` this run replaces.

        The runner caches bundle runs *per run* through this identity, so
        cache entries are independent of bundle composition (worker
        count, sweep shape) and interchange with entries written by the
        per-job scheduler this machinery replaced.
        """
        from repro.runner.jobs import SimJob

        return SimJob(
            config=self.config,
            benchmarks=self.benchmarks,
            mapping=self.mapping,
            commit_target=self.commit_target,
            trace_length=self.trace_length,
            seed=self.seed,
        )


@dataclass(frozen=True)
class ContinuationJob:
    """A bundle of runs executed inside one worker.

    ``execute()`` returns one :class:`~repro.core.simulation.SimResult`
    per run, in run order. Traces and post-warm snapshots are shared
    within the worker through the process memo and (when the runner
    activated one) the content-addressed store, so a bundle pays the
    cold-start cost once per distinct workload rather than once per run.
    The result cache operates per *run*, not per bundle (each run caches
    as the :class:`~repro.runner.jobs.SimJob` it replaces), so reuse
    survives re-bundling; the bundle itself never presents an identity
    to the cache.
    """

    runs: Tuple[ContinuationRun, ...]

    #: BatchRunner parallelizes batches of heavy jobs at 2+ jobs (a
    #: bundle amortizes its dispatch overhead by construction).
    heavy: ClassVar[bool] = True

    @property
    def resume_count(self) -> int:
        """Runs this bundle executes (one result each)."""
        return len(self.runs)

    def execute(
        self, cache: Optional["ResultCache"] = None
    ) -> Tuple[SimResult, ...]:
        return tuple(run.execute(cache) for run in self.runs)

    def trace_manifest(self) -> Tuple[TraceUnit, ...]:
        """One :class:`~repro.runner.jobs.TraceUnit` per bundled run (the
        runner's pre-pack pass dedups triples and warm sets itself)."""
        return tuple(
            TraceUnit(triples=tuple(run.trace_triples()), config=run.config)
            for run in self.runs
        )


def plan_bundles(
    runs: Sequence[ContinuationRun], bundle_count: int
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
    buckets: List[List[ContinuationRun]] = [[] for _ in range(n)]
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


def run_bundled(runner, runs: Sequence[ContinuationRun]) -> List[SimResult]:
    """Execute ``runs`` as one round-robin bundle per ``runner`` worker and
    return results in original run order — bit-identical to per-run
    dispatch (pinned by ``tests/runner/test_continuation.py``).
    """
    jobs = plan_bundles(runs, runner.workers)
    return unbundle_results(runner.run(jobs), len(runs))
