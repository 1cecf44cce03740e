"""BatchRunner: fan simulation jobs out over worker processes.

The experiment drivers describe work as :class:`~repro.runner.jobs.Job`
objects (picklable, content-hashable; see :mod:`repro.runner.jobs` for
the protocol) and hand lists of them to :meth:`BatchRunner.run`, which
preserves order: ``results[i]`` is the outcome of ``jobs[i]`` whether
the batch ran inline or across processes. Every job kind —
:class:`~repro.runner.jobs.SimJob`,
:class:`~repro.runner.screening.ScreenJob`,
:class:`~repro.runner.continuation.ContinuationJob` — flows through the
same dispatch, cache and trace-prepack path; the runner never
special-cases a job class.

Parallel batches are *supervised* (see :mod:`repro.runner.resilience`):
each job is submitted as its own future with a per-job timeout, failed
or timed-out jobs retry with exponential backoff (safe — every job is an
idempotent pure function of its identity), a broken pool is respawned
instead of propagating ``BrokenProcessPool``, and a pool that keeps
breaking degrades the batch to inline execution. The accumulated
:class:`~repro.runner.resilience.RunReport` (``runner.report``) records
how much fault handling a sweep needed.

A runner is built to stay alive: the worker pool, trace store and result
cache persist across any number of :meth:`BatchRunner.run` calls, which
is what lets the ``repro serve`` daemon (:mod:`repro.service`) execute
every request of a long-lived process on one shared runner.  After
:meth:`BatchRunner.close` a runner refuses new batches (``closed``).

Workers share two content-addressed stores through one directory:

* a :class:`~repro.trace.packed.PackedTraceStore` — before a parallel
  batch launches, every trace the batch needs (each job's
  :meth:`~repro.runner.jobs.Job.trace_manifest`) that the store lacks
  is generated and packed into it, so cold workers mmap the packed
  buffers instead of re-running
  :class:`~repro.trace.synthetic.TraceGenerator`;
* a warm-snapshot store (see :func:`repro.core.engine.set_warm_store`)
  — the batch's missing warm snapshots are computed next, so workers
  restore them instead of warming.

The parent only lists what is missing; the packing and warming run as
prep jobs on the same inline-or-supervised path as the batch itself, so
they keep the worker pool busy instead of leaving it idle while the
parent works (see :meth:`BatchRunner._prepack_traces`).

Jobs that run inline (a serial runner, a small batch, a degraded pool)
see the same store: the parent activates it for the duration of each
job, saving what it generates. Every process's trace and warm memos are
small LRUs, so a trace or snapshot evicted after one batch and needed
again by the next comes back from the store instead of being computed
again.

The store directory defaults to ``REPRO_TRACE_CACHE`` (persistent across
runs) or, failing that, a private temporary directory cleaned up with the
runner. Pass ``trace_store=False`` to disable the machinery entirely.
"""

from __future__ import annotations

import os
import tempfile
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    ClassVar,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.runner.cache import ResultCache
from repro.runner.jobs import SimJob
from repro.runner.resilience import RetryPolicy, RunReport, SupervisedExecutor
from repro.settings import Settings

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.memory.hierarchy import MemoryParams

__all__ = ["BatchRunner", "SimJob", "resolve_workers"]

#: Fewer jobs than this run inline: process spawn + pickle overhead would
#: exceed the win (a full-length run takes ~100 ms, a screen far less).
_MIN_PARALLEL_JOBS = 3

#: Threshold for *heavy* jobs (``job.heavy`` — checkpointed screen
#: ladders, bundled continuation/screen jobs): each one amortizes its
#: dispatch overhead by construction, so two already justify the pool.
_MIN_PARALLEL_HEAVY = 2


def resolve_workers(workers: Optional[int] = None) -> int:
    """Worker count: explicit argument > ``REPRO_WORKERS`` > cpu count."""
    if workers is None:
        workers = Settings.from_env().workers or os.cpu_count() or 1
    return max(1, workers)


# Module-level so ProcessPoolExecutor can pickle it by reference. The
# worker consults/populates the shared on-disk cache itself, so cache
# hits skip the simulation entirely even inside the pool.
_WORKER_CACHE_DIR: Optional[str] = None


def _init_worker(cache_dir: Optional[str], store_dir: Optional[str]) -> None:
    global _WORKER_CACHE_DIR
    _WORKER_CACHE_DIR = cache_dir
    # Dedicated simulation processes: with the cyclic GC off, reference
    # counting alone frees each finished simulation. That holds because a
    # Processor is in no reference cycle (it binds its stages per run, see
    # repro.core.engine.engine); tests/core/test_processor.py and
    # test_resilience.py::test_pool_workers_free_every_finished_simulation
    # guard it. Freezing the warm interpreter state also keeps it off any
    # later collection.
    import gc

    gc.disable()
    gc.freeze()
    if store_dir is not None:
        # Read-only for traces (prep jobs pack the batch's traces before
        # it runs); read-write for warm snapshots (first warmer persists
        # them).
        from repro.core.engine import set_warm_store
        from repro.trace.stream import set_trace_store

        set_trace_store(store_dir, save_on_generate=False)
        set_warm_store(store_dir)


@contextmanager
def _stores_active(store_dir: Optional[str]) -> Iterator[None]:
    """Activate ``store_dir`` as this process's trace and warm store for
    one inline job (saving generated traces: no prep job packed them),
    then restore whatever was active before."""
    if store_dir is None:
        yield
        return
    import repro.core.engine.warm as warm
    import repro.trace.stream as stream

    saved = stream._STORE, warm._WARM_STORE_DIR
    stream.set_trace_store(store_dir)
    warm.set_warm_store(store_dir)
    try:
        yield
    finally:
        stream._STORE, warm._WARM_STORE_DIR = saved


def _execute_job_supervised(job):
    """Supervised worker entry point: ``(result, stats)``.

    The fault-injection hook runs first (a no-op without
    ``REPRO_FAULT_PLAN`` — see :mod:`repro.runner.faults`), standing in
    for the real worker failures the supervisor must survive. ``stats``
    carries worker-side recovery counters back to the parent's
    :class:`~repro.runner.resilience.RunReport`; the per-call
    :class:`~repro.runner.cache.ResultCache` makes its counter a
    this-job delta.
    """
    from repro.runner.faults import maybe_inject_fault

    maybe_inject_fault(job)
    cache = (
        ResultCache(_WORKER_CACHE_DIR) if _WORKER_CACHE_DIR is not None else None
    )
    result = job.execute(cache)
    stats = {"cache_fallbacks": cache.corrupt_fallbacks if cache else 0}
    return result, stats


@dataclass(frozen=True)
class _PackTrace:
    """Prep unit: pack one trace into the shared store (``transient_trace``:
    from this process's memo when it holds the trace, else generated
    without entering the memo)."""

    store_dir: str
    triple: Tuple[str, int, int]

    heavy: ClassVar[bool] = True

    def execute(self, cache=None) -> None:
        from repro.trace.packed import PackedTrace, PackedTraceStore
        from repro.trace.stream import transient_trace

        packed = PackedTrace.from_trace(transient_trace(*self.triple))
        PackedTraceStore(self.store_dir).save(packed, *self.triple)

    def trace_manifest(self) -> Tuple:
        return ()


@dataclass(frozen=True)
class _WarmSnapshot:
    """Prep unit: compute one warm snapshot into the shared store (in a
    pool worker, from the traces the :class:`_PackTrace` units packed)."""

    store_dir: str
    memory: "MemoryParams"
    triples: Tuple[Tuple[str, int, int], ...]

    heavy: ClassVar[bool] = True

    def execute(self, cache=None) -> None:
        from repro.core.engine import ensure_warm_snapshot
        from repro.trace.stream import trace_for

        traces = [trace_for(*t) for t in self.triples]
        ensure_warm_snapshot(self.store_dir, self.memory, traces)

    def trace_manifest(self) -> Tuple:
        return ()


class BatchRunner:
    """Execute batches of :class:`~repro.runner.jobs.Job` objects with
    optional parallelism and supervised fault tolerance.

    Parameters
    ----------
    workers:
        Process count; defaults to ``REPRO_WORKERS`` or the cpu count.
        ``1`` disables multiprocessing entirely (pure sequential).
    cache_dir:
        Directory for the on-disk result cache; defaults to the
        ``REPRO_RESULT_CACHE`` environment variable; None disables it.
    trace_store:
        Directory for the shared packed-trace / warm-snapshot store;
        ``None`` (the default) resolves to ``REPRO_TRACE_CACHE`` or a
        private temporary directory removed by :meth:`close`; ``False``
        disables the store machinery.
    policy:
        :class:`~repro.runner.resilience.RetryPolicy` for the supervised
        dispatch (attempt budget, backoff, per-job timeout, respawn
        budget); defaults to the environment's
        (:meth:`repro.settings.Settings.retry_policy`).

    Results are independent of the worker count — simulations are pure
    functions of their job — so callers may treat ``workers`` purely as a
    throughput knob. ``runner.report`` accumulates a structured
    :class:`~repro.runner.resilience.RunReport` of every recovery event
    across the runner's lifetime.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        cache_dir: Optional[Union[str, os.PathLike]] = None,
        trace_store: Union[None, bool, str, os.PathLike] = None,
        policy: Optional[RetryPolicy] = None,
    ) -> None:
        self._supervisor: Optional[SupervisedExecutor] = None  # before any raise
        self._own_store_tmp: Optional[tempfile.TemporaryDirectory] = None
        self._closed = False
        settings = Settings.from_env()
        self.workers = resolve_workers(workers)
        self.policy = policy if policy is not None else settings.retry_policy()
        self.report = RunReport()
        if cache_dir is None:
            cache_dir = settings.result_cache
        self.cache_dir = str(cache_dir) if cache_dir is not None else None
        self.cache = ResultCache(self.cache_dir) if self.cache_dir else None
        if trace_store is None:
            trace_store = settings.trace_cache
        if trace_store is False:
            self.store_dir: Optional[str] = None
        elif trace_store is None:
            self._own_store_tmp = tempfile.TemporaryDirectory(
                prefix="repro-store-"
            )
            self.store_dir = self._own_store_tmp.name
        else:
            self.store_dir = str(trace_store)
        #: traces already packed into the store (parent-side memo)
        self._packed_triples: Set[Tuple[str, int, int]] = set()

    # -- lifecycle ---------------------------------------------------------
    #
    # The worker pool persists across run() calls so an experiment sweep
    # pays process start-up once and the workers' trace / warm-state memos
    # carry the last workload over to the next batch. The supervisor
    # respawns it transparently when it breaks.

    def _make_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=_init_worker,
            initargs=(self.cache_dir, self.store_dir),
        )

    def _execute_inline(self, job):
        """Parent-process execution with the supervised ``(result, stats)``
        contract (the small-batch path and the degraded-pool fallback)."""
        cache = self.cache
        before = cache.corrupt_fallbacks if cache is not None else 0
        with _stores_active(self.store_dir):
            result = job.execute(cache)
        after = cache.corrupt_fallbacks if cache is not None else 0
        return result, {"cache_fallbacks": after - before}

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run; a closed runner refuses new
        batches instead of silently recreating half its machinery."""
        return self._closed

    def close(self) -> None:
        """Shut the worker pool down (idempotent; double-close safe)."""
        self._closed = True
        if self._supervisor is not None:
            self._supervisor.close()
            self._supervisor = None
        if self._own_store_tmp is not None:
            self._own_store_tmp.cleanup()
            self._own_store_tmp = None
            self.store_dir = None

    def __enter__(self) -> "BatchRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        # getattr guards: __init__ may have raised before the attributes
        # existed, and close() may already have run (double-cleanup).
        supervisor = getattr(self, "_supervisor", None)
        if supervisor is not None:
            supervisor.close(kill=True)
            self._supervisor = None
        own_tmp = getattr(self, "_own_store_tmp", None)
        if own_tmp is not None:
            own_tmp.cleanup()
            self._own_store_tmp = None

    # -- execution ---------------------------------------------------------

    def run(self, jobs: Sequence) -> List:
        """Execute every job; ``results[i]`` corresponds to ``jobs[i]``.

        Accepts any mix of :class:`~repro.runner.jobs.Job`
        implementations (:class:`~repro.runner.jobs.SimJob`,
        :class:`~repro.runner.screening.ScreenJob`,
        :class:`~repro.runner.continuation.ContinuationJob`, ...): one
        dispatch path, no per-kind cases.

        Parallel batches run supervised: per-job futures with timeout,
        retry/backoff, pool respawn and inline degradation (see
        :mod:`repro.runner.resilience`); results are bit-identical to
        sequential execution regardless of which recovery paths fire.
        ``KeyboardInterrupt`` cancels outstanding futures and shuts the
        pool down without waiting, so Ctrl-C on a sweep exits promptly
        instead of leaking workers.
        """
        if self._closed:
            # The serving layer keeps one runner alive across thousands
            # of requests; a batch slipping in after drain/close would
            # otherwise resurrect the pool with its temp store gone.
            raise RuntimeError("BatchRunner is closed")
        return self._run_local(jobs)

    @staticmethod
    def _min_parallel(jobs: Sequence) -> int:
        return (
            _MIN_PARALLEL_HEAVY
            if any(job.heavy for job in jobs)
            else _MIN_PARALLEL_JOBS
        )

    def _run_local(self, jobs: Sequence) -> List:
        """The execution ladder: inline for small batches or a single
        worker, the supervised pool otherwise.  Prep units run through
        here rather than :meth:`run`, so they do not count among the
        caller's batches."""
        jobs = list(jobs)
        if self.workers <= 1 or len(jobs) < self._min_parallel(jobs):
            return self._run_inline(jobs)
        self._prepack_traces(jobs)
        if self._supervisor is None:
            self._supervisor = SupervisedExecutor(
                pool_factory=self._make_pool,
                worker_fn=_execute_job_supervised,
                inline_fn=self._execute_inline,
                policy=self.policy,
                report=self.report,
                max_inflight=self.workers,
            )
        try:
            return self._supervisor.run(jobs)
        except KeyboardInterrupt:
            # The supervisor already killed its pool and cancelled the
            # outstanding futures on the way out; drop it so a resumed
            # runner starts from a clean slate.
            self._supervisor = None
            raise

    def _run_inline(self, jobs: Sequence) -> List:
        """Sequential execution with the same report bookkeeping."""
        report = self.report
        report.batches += 1
        report.jobs += len(jobs)
        import time as _time

        t0 = _time.monotonic()
        results = []
        try:
            for job in jobs:
                j0 = _time.monotonic()
                result, stats = self._execute_inline(job)
                results.append(result)
                report.attempts += 1
                report.record_job(_time.monotonic() - j0)
                report.absorb_worker_stats(stats)
        finally:
            report.wall_seconds += _time.monotonic() - t0
        return results

    def _prepack_traces(self, jobs: Sequence) -> None:
        """Pack the batch's traces and warm snapshots into the shared store.

        The parent only works out what is missing — from each job's
        :meth:`~repro.runner.jobs.Job.trace_manifest`, whatever its kind,
        with no trace loaded: a trace is missing when the store lacks
        its file, a warm set when its snapshot path (a function of the
        triples) does not exist. The missing units then run as ordinary
        jobs on :meth:`_run_local` — every :class:`_PackTrace` first,
        then every :class:`_WarmSnapshot`, so warm units read packed
        traces — inline when there are too few to parallelize, on the
        supervised pool with its retries otherwise. Distinct traces are
        generated exactly once, machine-wide: workers mmap the packed
        buffers and skip :class:`~repro.trace.synthetic.TraceGenerator`,
        and concurrent workers hitting the same workload load one
        snapshot instead of racing to compute identical ones. Prep units
        are not the caller's jobs: only their recovery events reach
        :attr:`report`.
        """
        if self.store_dir is None:
            return
        from repro.core.config import get_config
        from repro.core.engine import warm_snapshot_path
        from repro.trace.packed import PackedTraceStore
        from repro.trace.stream import _JUNK_LEN

        store_dir = self.store_dir
        store: Optional[PackedTraceStore] = None
        packs = {}
        warms = {}
        for job in jobs:
            for unit in job.trace_manifest():
                for triple in unit.triples:
                    if triple in self._packed_triples or triple in packs:
                        continue
                    if store is None:
                        store = PackedTraceStore(store_dir)
                    if store.contains(*triple, _JUNK_LEN):
                        self._packed_triples.add(triple)
                    else:
                        packs[triple] = _PackTrace(store_dir, triple)
                if unit.config is not None:
                    config = unit.config
                    if isinstance(config, str):
                        config = get_config(config)
                    memory = config.params.memory
                    path = warm_snapshot_path(
                        store_dir, memory, len(unit.triples), unit.triples
                    )
                    if path not in warms and not os.path.exists(path):
                        warms[path] = _WarmSnapshot(
                            store_dir, memory, unit.triples
                        )
        with self.report.events_only():
            if packs:
                self._run_local(list(packs.values()))
                self._packed_triples.update(packs)
            if warms:
                self._run_local(list(warms.values()))
