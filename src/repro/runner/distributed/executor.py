"""The front-end half of distributed execution: enqueue, watch, heal.

:class:`DistributedExecutor` sits behind
:class:`~repro.runner.batch.BatchRunner` exactly where the local
:class:`~repro.runner.resilience.SupervisedExecutor` does, and makes the
same promise — ``results[i]`` is the bit-identical outcome of
``jobs[i]`` no matter what broke along the way — against a fleet of
``repro worker`` processes it does not control:

* **durable enqueue** — every job becomes an atomic task record in the
  :class:`~repro.runner.distributed.queue.JobQueue`; a front end killed
  after enqueue leaves nothing torn (orphaned records are swept by the
  next batch's cleanup of its own prefix and are harmless meanwhile —
  execution is idempotent and cache-backed).
* **grace-window degradation** — if no live worker registers within
  ``grace`` seconds of enqueue, the batch is withdrawn and handed to the
  local fallback (the supervised pool), so a sweep never blocks on an
  empty fleet.
* **lease reclamation** — a worker that dies or wedges stops renewing
  its lease; the watcher reclaims expired leases (exactly-one-winner
  rename) so the task becomes claimable again.  Workers reclaim too —
  self-healing is symmetric.
* **speculative re-dispatch** — once the completion-time distribution is
  known (``spec_quantile`` of the batch done), a task leased for longer
  than ``spec_factor`` × the median duration gets a speculative twin
  (``<base>~s1``).  First published result wins; the loser's bytes would
  have been identical (idempotency), so speculation is pure tail-latency
  insurance, never a correctness risk.  The twin is the fleet's only
  tail rescue: a straggling continuation bundle is re-dispatched whole.
* **failure accounting** — worker-side failures claim machine-wide
  ordinals; when a task's count reaches the shared
  :class:`~repro.runner.resilience.RetryPolicy` attempt budget the
  watcher raises the standard :class:`~repro.runner.resilience.JobError`
  (last failure chained in the message), matching the local contract.
* **stall fallback** — if the fleet goes dark mid-batch (no live
  heartbeat past the grace window) or no result lands for
  ``stall_seconds``, the remaining jobs drain through the local
  fallback.  Termination is unconditional: every path either completes,
  degrades, or raises.

Every recovery event lands in the shared
:class:`~repro.runner.resilience.RunReport` (``enqueued`` /
``lease_reclaims`` / ``speculations`` / ``local_fallbacks``), so a sweep
reports how eventful its distributed execution was.
"""

from __future__ import annotations

import logging
import statistics
import time
import uuid
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.runner.distributed.queue import JobQueue, base_task_id
from repro.runner.resilience import JobError, RetryPolicy, RunReport
from repro.settings import Settings

__all__ = ["DistributedExecutor"]

logger = logging.getLogger(__name__)

#: Suffix marking a speculative twin's task id (``<base>~s<n>``).
_SPEC_MARK = "~s"


class DistributedExecutor:
    """Enqueue-and-watch driver over a :class:`JobQueue` worker fleet.

    Parameters (environment default in brackets; all timing knobs are
    seconds):

    grace [``REPRO_DIST_GRACE``, 5.0]
        How long to wait for a live worker before degrading the batch to
        the local fallback; also the patience for a fleet that goes dark
        mid-batch.
    lease_ttl [``REPRO_LEASE_TTL``, 10.0]
        Lease lifetime granted to workers and assumed when reading
        unparseable leases.  Workers renew at a third of this.
    spec_quantile [``REPRO_SPEC_QUANTILE``, 0.5]
        Fraction of the batch that must have completed before straggler
        speculation arms (the deadline needs a distribution to quantile).
    spec_factor [``REPRO_SPEC_FACTOR``, 3.0]
        A task leased longer than ``spec_factor * median(duration)``
        (floored at ``spec_min_seconds``) gets one speculative twin.
    stall_seconds [``REPRO_DIST_STALL``, 60.0]
        Result-progress watchdog: this long with pending tasks and no
        result at all drains the remainder through the local fallback.
    """

    def __init__(
        self,
        queue: JobQueue,
        policy: Optional[RetryPolicy] = None,
        report: Optional[RunReport] = None,
        grace: Optional[float] = None,
        lease_ttl: Optional[float] = None,
        poll_interval: float = 0.02,
        spec_quantile: Optional[float] = None,
        spec_factor: Optional[float] = None,
        spec_min_seconds: float = 1.0,
        stall_seconds: Optional[float] = None,
    ) -> None:
        settings = Settings.from_env()
        self.queue = queue
        self.policy = policy if policy is not None else settings.retry_policy()
        self.report = report if report is not None else RunReport()
        self.grace = grace if grace is not None else settings.dist_grace
        self.lease_ttl = lease_ttl if lease_ttl is not None else settings.lease_ttl
        self.poll_interval = poll_interval
        self.spec_quantile = (
            spec_quantile if spec_quantile is not None else settings.spec_quantile
        )
        self.spec_factor = (
            spec_factor if spec_factor is not None else settings.spec_factor
        )
        self.spec_min_seconds = spec_min_seconds
        self.stall_seconds = (
            stall_seconds if stall_seconds is not None else settings.dist_stall
        )

    # -- helpers -----------------------------------------------------------

    def _live_workers(self) -> Dict[str, float]:
        # A polling worker heartbeats every lease_ttl/3; treat anything
        # fresher than a full ttl as alive.
        return self.queue.live_workers(self.lease_ttl)

    # -- execution ---------------------------------------------------------

    def run(self, jobs: Sequence, fallback: Callable[[List], List]) -> List:
        """Execute ``jobs`` through the worker fleet; ``fallback`` runs a
        job list locally (the supervised path) and is used when the
        fleet never shows up, goes dark, or stalls."""
        jobs = list(jobs)
        if not jobs:
            return []
        prefix = f"b{uuid.uuid4().hex[:10]}"
        task_ids = [f"{prefix}-j{i:04d}" for i in range(len(jobs))]
        for tid, job in zip(task_ids, jobs):
            self.queue.enqueue(tid, job)
        self.report.enqueued += len(jobs)

        # Grace window: a batch with no fleet must not hang — withdraw
        # and run locally.  (Workers that appear mid-wait are used.)
        deadline = time.monotonic() + self.grace
        while not self._live_workers():
            if time.monotonic() >= deadline:
                logger.warning(
                    "no live worker registered within the %.1fs grace "
                    "window; degrading batch of %d to local execution",
                    self.grace, len(jobs),
                )
                self.queue.cleanup_batch(prefix)
                self.report.local_fallbacks += 1
                return fallback(jobs)
            time.sleep(self.poll_interval)

        self.report.batches += 1
        self.report.jobs += len(jobs)
        t0 = time.monotonic()
        try:
            return self._watch(jobs, task_ids, prefix, fallback)
        finally:
            self.report.wall_seconds += time.monotonic() - t0
            # Reclamations are counted from the queue's tombstones, not
            # from this front end's own reclaim wins: surviving workers
            # race us for expired leases and their wins are events too.
            self.report.lease_reclaims += self.queue.reclaim_count(prefix)
            self.queue.cleanup_batch(prefix)

    def _watch(self, jobs: List, task_ids: List[str], prefix: str,
               fallback: Callable[[List], List]) -> List:
        report = self.report
        n = len(jobs)
        results: List = [None] * n
        pending: Dict[str, int] = {tid: i for i, tid in enumerate(task_ids)}
        durations: List[float] = []
        first_leased: Dict[str, float] = {}
        #: task_id -> (wall-clock expiry stamp, monotonic deadline): the
        #: lease file's wall stamp converted to this process' monotonic
        #: clock at first observation, so expiry countdowns survive
        #: wall-clock jumps (see the reclaim section below).
        lease_deadlines: Dict[str, Tuple[float, float]] = {}
        failures_counted: Dict[str, int] = {}
        spec_issued: set = set()
        now = time.monotonic()
        last_result = now
        last_live = now

        while pending:
            progressed = False

            # -- harvest published results ----------------------------
            for base in list(pending):
                record = self.queue.load_result(base)
                if record is None:
                    continue
                i = pending.pop(base)
                results[i] = record["result"]
                durations.append(float(record.get("seconds", 0.0)))
                report.attempts += 1
                report.job_seconds.append(float(record.get("seconds", 0.0)))
                report.absorb_worker_stats(record.get("stats"))
                progressed = True

            if progressed:
                last_result = time.monotonic()
            if not pending:
                break

            # -- failure accounting (worker-side attempt ordinals) -----
            for base in pending:
                count = self.queue.failure_count(base)
                seen = failures_counted.get(base, 0)
                if count > seen:
                    failures_counted[base] = count
                    report.attempts += count - seen
                    report.retries += min(count, self.policy.max_attempts - 1) - min(
                        seen, self.policy.max_attempts - 1
                    )
                if count >= self.policy.max_attempts:
                    report.failures += 1
                    last = self.queue.last_failure(base) or "unknown error"
                    raise JobError(
                        f"job {pending[base]} ({base}) failed on {count} "
                        f"distributed attempt(s); last failure: {last}",
                        job=jobs[pending[base]],
                        attempts=count,
                    )

            # -- reclaim expired leases (lost/hung workers) ------------
            # Lease files carry *wall-clock* expiry stamps (the only
            # clock comparable across worker machines), but this front
            # end enforces them on the monotonic clock like every other
            # deadline in this file: each observed stamp is converted to
            # a monotonic deadline exactly once, so an NTP step or
            # suspend/resume mid-wait can neither spuriously expire a
            # healthy lease nor immortalize a dead one.  A renewal
            # writes a fresh stamp, which re-converts.
            for lease in self.queue.leases(self.lease_ttl):
                if base_task_id(lease.task_id) not in pending:
                    lease_deadlines.pop(lease.task_id, None)
                    continue
                known = lease_deadlines.get(lease.task_id)
                if known is None or known[0] != lease.expiry:
                    deadline = time.monotonic() + max(
                        0.0, lease.expiry - time.time()
                    )
                    lease_deadlines[lease.task_id] = (lease.expiry, deadline)
                else:
                    deadline = known[1]
                if time.monotonic() >= deadline:
                    if self.queue.reclaim(lease.task_id):
                        logger.warning(
                            "reclaimed expired lease on %s (owner %s)",
                            lease.task_id, lease.owner,
                        )
                        first_leased.pop(lease.task_id, None)
                        lease_deadlines.pop(lease.task_id, None)
                else:
                    first_leased.setdefault(lease.task_id, time.monotonic())

            # -- speculative straggler re-dispatch ---------------------
            done = n - len(pending)
            if durations and done >= max(1, int(self.spec_quantile * n)):
                median = statistics.median(durations)
                threshold = max(self.spec_min_seconds,
                                self.spec_factor * median)
                now = time.monotonic()
                for tid, started in list(first_leased.items()):
                    base = base_task_id(tid)
                    if base not in pending or base in spec_issued:
                        continue
                    if _SPEC_MARK in tid:
                        continue  # never speculate on a twin
                    if now - started <= threshold:
                        continue
                    spec_issued.add(base)
                    report.speculations += 1
                    logger.warning(
                        "task %s still running after %.2fs (median %.2fs); "
                        "dispatching speculative twin",
                        tid, now - started, median,
                    )
                    self.queue.enqueue(f"{base}{_SPEC_MARK}1", jobs[pending[base]])

            # -- fleet liveness + progress watchdogs -------------------
            now = time.monotonic()
            if self._live_workers():
                last_live = now
            dark = now - last_live > self.grace
            stalled = now - last_result > self.stall_seconds
            if dark or stalled:
                why = ("fleet went dark" if dark
                       else f"no result for {self.stall_seconds:.0f}s")
                logger.warning(
                    "%s with %d task(s) pending; draining remainder "
                    "through the local fallback", why, len(pending),
                )
                remaining = sorted(pending.values())
                # The fallback re-counts these jobs as its own batch;
                # un-count them here so report.jobs stays the number of
                # jobs submitted, not executions attempted.
                report.jobs -= len(remaining)
                report.local_fallbacks += 1
                local = fallback([jobs[i] for i in remaining])
                for i, r in zip(remaining, local):
                    results[i] = r
                return results

            time.sleep(self.poll_interval)

        return results
