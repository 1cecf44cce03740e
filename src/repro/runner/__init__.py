"""Parallel batch execution of simulations.

The paper's figures need BEST/WORST oracle sweeps — every distinct
thread-to-pipeline mapping of every (configuration, workload) pair is
screened with a short simulation. Those runs are embarrassingly parallel
and perfectly deterministic, so :class:`~repro.runner.batch.BatchRunner`
fans them out over a :class:`concurrent.futures.ProcessPoolExecutor`:

* **one job protocol** — every job kind implements
  :class:`~repro.runner.jobs.Job` (identity key, ``heavy`` scheduling
  hint, trace manifest, cache-aware ``execute``), so the runner has
  exactly one dispatch/cache/prepack path and new job kinds need no
  runner changes;
* **process-local caches** — each process keeps small LRU memos of
  traces (:func:`repro.trace.stream.trace_for`) and warm snapshots
  (:mod:`repro.core.engine.warm`), and a bundle runs workload by
  workload, so a worker holds the workload it is simulating; what the
  memos evict comes back from the runner's store, so a workload's
  traces are generated and warmed once per sweep, not once per job;
* **optional on-disk result cache** — jobs are content-addressed by
  (configuration, workload, mapping, commit target, trace length, seed)
  and their :class:`~repro.core.simulation.SimResult` is stored as JSON,
  so re-running an experiment sweep is free;
* **bit-identical results** — a simulation's outcome depends only on its
  arguments, never on scheduling, so parallel results equal sequential
  results exactly (asserted by ``tests/runner/test_batch_runner.py``);
* **shared packed-trace / warm-snapshot store** — before a parallel batch
  launches, every trace it needs is packed into a content-addressed
  store (``REPRO_TRACE_CACHE`` or a private temp dir) and its warm
  snapshots computed, as prep jobs on the worker pool; workers mmap the
  packed columns instead of regenerating traces and restore the
  snapshots instead of warming;
* **successive-halving screens** — :class:`~repro.runner.screening.
  HalvingScreen` plans staged oracle screening (short windows eliminate
  the middle of the candidate pack before full-window runs), the
  ``--screening`` fast path of the experiment drivers;
* **bundled runs** — :class:`~repro.runner.continuation.ContinuationJob`
  packs the sweep's per-run work — post-screen full-length continuations
  *and* exact-mode screens — into a handful of bundles sized to the
  worker count (:func:`~repro.runner.continuation.plan_bundles` /
  :func:`~repro.runner.continuation.run_bundled`), so the pool executes
  a few large jobs instead of draining one job per run;
* **supervised, fault-tolerant dispatch** — parallel batches run through
  :class:`~repro.runner.resilience.SupervisedExecutor`: per-job futures
  with configurable timeouts (:class:`~repro.runner.resilience.
  RetryPolicy`), exponential-backoff retries (free and safe because jobs
  are idempotent), automatic pool respawn on ``BrokenProcessPool``, and
  inline degradation when the pool breaks repeatedly. Every recovery
  event lands in a structured
  :class:`~repro.runner.resilience.RunReport` (``runner.report``), and a
  deterministic fault-injection harness (:mod:`repro.runner.faults`,
  env-gated by ``REPRO_FAULT_PLAN``) exercises each path with real
  worker processes.

Worker count: the ``workers`` argument, else the ``REPRO_WORKERS``
environment variable, else ``os.cpu_count()``. ``workers=1`` (or a batch
of fewer than two jobs) runs inline with no subprocess overhead.
"""

from repro.runner.batch import BatchRunner
from repro.runner.cache import ResultCache
from repro.runner.continuation import (
    ContinuationJob,
    ContinuationRun,
    plan_bundles,
    run_bundled,
)
from repro.runner.jobs import Job, SimJob, TraceUnit
from repro.runner.resilience import (
    JobError,
    JobTimeoutError,
    RetryPolicy,
    RunReport,
    SupervisedExecutor,
)
from repro.runner.screening import HalvingScreen

__all__ = [
    "BatchRunner",
    "Job",
    "SimJob",
    "TraceUnit",
    "ResultCache",
    "HalvingScreen",
    "ContinuationJob",
    "ContinuationRun",
    "plan_bundles",
    "run_bundled",
    "RetryPolicy",
    "RunReport",
    "SupervisedExecutor",
    "JobError",
    "JobTimeoutError",
]
