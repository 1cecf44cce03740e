"""The unified runner job protocol.

Three job taxonomies grew side by side over the perf PRs — per-run
:class:`SimJob`, checkpointed :class:`~repro.runner.screening.ScreenJob`
ladders, and bundled
:class:`~repro.runner.continuation.ContinuationJob` continuations — each
with its own dispatch, caching and trace-prepack special case inside
:class:`~repro.runner.batch.BatchRunner`. This module collapses them
onto one :class:`Job` protocol, so the runner has exactly one
dispatch/cache/prepack path:

``heavy``
    Scheduling hint: a heavy job (a whole screen ladder, a continuation
    bundle) amortizes its dispatch overhead by construction, so the
    runner parallelizes batches of heavy jobs at 2+ jobs instead of 3+.

``execute(cache=None)``
    Run the job in this process. A cache-aware job consults/populates
    the given :class:`~repro.runner.cache.ResultCache` itself (under its
    own identity, or — for bundles — under each bundled run's identity,
    so reuse never depends on batch composition). ``execute()`` with no
    cache is always the raw computation.

``trace_manifest()``
    The job's trace needs, as :class:`TraceUnit` records — one per
    independent simulation the job contains. The BatchRunner parent
    iterates these to list the traces and warm snapshots the shared
    store lacks before a parallel batch launches, with no per-job-kind
    special-casing, and packs them with prep jobs on the pool.

``cache_key_fields()``
    The job's canonical identity for the on-disk result cache (see
    :meth:`~repro.runner.cache.ResultCache.job_key`). Jobs that cache at
    a finer grain (bundles cache per run) simply never present
    themselves to the cache.

:class:`SimJob` — one ``run_simulation`` call as data — lives here as
the protocol's reference implementation; the screen and continuation
jobs implement the same protocol in their own modules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    ClassVar,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
    runtime_checkable,
)

from repro.core.config import MicroarchConfig
from repro.core.simulation import (
    SimResult,
    default_trace_length,
    resolve_trace_triples,
    run_simulation,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runner.cache import ResultCache

__all__ = ["Job", "SimJob", "TraceUnit"]

#: (benchmark, length, instance) — the identity of one synthetic trace.
Triple = Tuple[str, int, int]


@dataclass(frozen=True)
class TraceUnit:
    """Trace needs of one independent simulation inside a job.

    ``triples`` are the traces the simulation streams; ``config`` is the
    configuration whose memory parameters key the warm snapshot — or
    ``None`` when the simulation runs unwarmed (no snapshot to
    precompute).
    """

    triples: Tuple[Triple, ...]
    config: Union[str, MicroarchConfig, None]


@runtime_checkable
class Job(Protocol):
    """What :class:`~repro.runner.batch.BatchRunner` requires of a job."""

    heavy: bool

    def execute(self, cache: Optional["ResultCache"] = None) -> Any:
        """Run in this process (cache-aware when a cache is given)."""

    def trace_manifest(self) -> Sequence[TraceUnit]:
        """One :class:`TraceUnit` per independent simulation contained."""


@dataclass(frozen=True)
class SimJob:
    """One :func:`~repro.core.simulation.run_simulation` call, as data.

    ``seed`` namespaces the synthetic-trace generation (the paper's fixed
    traces are seed 0); it participates in the cache key so alternative
    trace draws never collide.
    """

    config: Union[str, MicroarchConfig]
    benchmarks: Tuple[str, ...]
    mapping: Tuple[int, ...]
    commit_target: int
    trace_length: Optional[int] = None
    warmup: bool = True
    max_cycles: Optional[int] = None
    seed: int = 0

    #: plain per-run jobs don't amortize dispatch; the runner requires a
    #: slightly larger batch before spinning up the pool.
    heavy: ClassVar[bool] = False

    def execute(self, cache: Optional["ResultCache"] = None) -> SimResult:
        """Run the simulation described by this job (in this process),
        serving from / populating ``cache`` when one is given."""
        if cache is not None:
            hit = cache.get(self)
            if hit is not None:
                return hit
        result = run_simulation(
            self.config,
            self.benchmarks,
            self.mapping,
            self.commit_target,
            trace_length=self.trace_length,
            warmup=self.warmup,
            max_cycles=self.max_cycles,
            seed=self.seed,
        )
        if cache is not None:
            cache.put(self, result)
        return result

    def trace_triples(self) -> List[Triple]:
        """The ``(benchmark, length, instance)`` traces this job streams —
        :func:`~repro.core.simulation.run_simulation`'s exact resolution,
        so the runner can pre-pack exactly what workers will look up."""
        length = (
            self.trace_length
            if self.trace_length is not None
            else default_trace_length(self.commit_target)
        )
        return resolve_trace_triples(self.benchmarks, length, self.seed)

    def trace_manifest(self) -> Tuple[TraceUnit, ...]:
        return (
            TraceUnit(
                triples=tuple(self.trace_triples()),
                config=self.config if self.warmup else None,
            ),
        )

    def cache_key_fields(self) -> dict:
        """Content-hash fields for the on-disk result cache.

        The field set (and therefore every existing cache key) is
        byte-identical to the pre-protocol ``ResultCache`` legacy
        hashing, so caches populated by earlier revisions keep hitting.
        """
        config = self.config if isinstance(self.config, str) else repr(self.config)
        return {
            "config": config,
            "benchmarks": list(self.benchmarks),
            "mapping": list(self.mapping),
            "commit_target": self.commit_target,
            "trace_length": self.trace_length,
            "warmup": self.warmup,
            "max_cycles": self.max_cycles,
            "seed": self.seed,
        }

    def result_payload(self, result: SimResult) -> dict:
        from repro.runner.cache import sim_result_payload

        return sim_result_payload(result)

    def restore_result(self, payload: dict) -> SimResult:
        from repro.runner.cache import sim_result_restore

        return sim_result_restore(payload)
