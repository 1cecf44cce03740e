"""The remote worker: pull job bundles, renew leases, publish results.

``repro worker --queue DIR`` runs this loop.  A worker is deliberately
dumb — all batch intelligence (ordering, speculation, fallback) lives in
the front end — and deliberately killable: every step is crash-safe
because the queue's on-disk protocol is (see
:mod:`repro.runner.distributed.queue`).

Per task the worker:

1. **claims** the oldest unowned, unfailed-out task (``O_CREAT|O_EXCL``
   lease with its id and an expiry);
2. **executes** it through the same worker entry discipline as the
   local pool — the deterministic fault-injection hook first (scoped
   ``context="worker"``), then the job's cache-aware ``execute`` against
   the shared content-addressed :class:`~repro.runner.cache.ResultCache`
   — while a background thread renews the lease every
   ``heartbeat_interval`` seconds (a hung or killed worker stops
   renewing, the lease expires, and the front end reclaims it);
3. **publishes** ``{result, stats, seconds, worker, attempt}`` under the
   task's base id (first-wins: a speculative twin may have beaten it —
   harmless, execution is idempotent);
4. **releases** the lease.

A failed execution claims the next machine-wide failure ordinal for the
task; while attempts remain the worker backs off (the shared
:meth:`~repro.runner.resilience.RetryPolicy.backoff_for` schedule, with
``REPRO_RETRY_JITTER`` de-synchronizing a fleet that failed in lockstep)
before releasing the lease so someone — possibly itself — retries.  A
task at its attempt budget is left alone; the front end converts the
failure notes into the standard :class:`~repro.runner.resilience.JobError`.

The injected ``stale_lease`` fault op (worker-scoped) freezes lease
renewal and stalls before executing: the lease expires under a live
worker, the front end reclaims and re-dispatches, and the first-wins
publish settles the race — the takeover scenario the chaos lane pins.
"""

from __future__ import annotations

import logging
import os
import random
import threading
import time
from typing import Optional

from repro.runner.cache import ResultCache
from repro.runner.distributed.queue import JobQueue, base_task_id
from repro.runner.resilience import RetryPolicy
from repro.settings import Settings

__all__ = ["Worker", "run_worker"]

logger = logging.getLogger(__name__)


class _LeaseRenewer(threading.Thread):
    """Renews one task's lease (and the worker heartbeat) until stopped.

    ``freeze()`` stops renewals without stopping execution — the
    ``stale_lease`` fault uses it to let a lease expire under a live
    worker.
    """

    def __init__(self, queue: JobQueue, task_id: str, owner: str,
                 ttl: float, interval: float) -> None:
        super().__init__(daemon=True)
        self.queue = queue
        self.task_id = task_id
        self.owner = owner
        self.ttl = ttl
        self.interval = interval
        self._stop = threading.Event()
        self._frozen = threading.Event()

    def freeze(self) -> None:
        self._frozen.set()

    def stop(self) -> None:
        self._stop.set()

    def run(self) -> None:  # pragma: no cover - timing-driven thread body
        while not self._stop.wait(self.interval):
            if self._frozen.is_set():
                continue
            try:
                self.queue.renew(self.task_id, self.owner, self.ttl)
                self.queue.heartbeat_worker(self.owner)
            except OSError as exc:
                logger.warning("lease renewal failed for %s: %s",
                               self.task_id, exc)


class Worker:
    """One worker process' pull-execute-publish loop.

    Parameters
    ----------
    queue_dir:
        The shared queue directory (the whole coordination surface).
    worker_id:
        Stable identity for leases/heartbeats; defaults to
        ``w<hostpid>``.
    lease_ttl / heartbeat_interval:
        Lease lifetime and renewal cadence (renewal must outpace expiry;
        the default interval is a third of the ttl).
    policy:
        Shared :class:`~repro.runner.resilience.RetryPolicy` — the
        worker consults ``max_attempts`` (stop retrying a poisoned
        task) and ``backoff_for`` (post-failure delay).
    cache_dir / store_dir:
        Result cache and packed-trace/warm-snapshot store; default to
        the queue's ``config.json`` published by the front end.
    max_tasks / idle_exit:
        Optional exit conditions (tests and bounded fleets); a ``stop``
        marker in the queue always exits the loop.
    """

    def __init__(
        self,
        queue_dir: str | os.PathLike,
        worker_id: Optional[str] = None,
        lease_ttl: float = 10.0,
        heartbeat_interval: Optional[float] = None,
        policy: Optional[RetryPolicy] = None,
        cache_dir: Optional[str] = None,
        store_dir: Optional[str] = None,
        max_tasks: Optional[int] = None,
        idle_exit: Optional[float] = None,
        poll_interval: float = 0.05,
    ) -> None:
        self.queue = JobQueue(queue_dir)
        self.worker_id = worker_id or f"w{os.getpid()}"
        self.lease_ttl = max(0.2, float(lease_ttl))
        self.heartbeat_interval = (
            heartbeat_interval
            if heartbeat_interval is not None
            else self.lease_ttl / 3.0
        )
        self.policy = (
            policy if policy is not None else Settings.from_env().retry_policy()
        )
        config = self.queue.read_config()
        self.cache_dir = cache_dir if cache_dir is not None else config.get("cache_dir")
        self.store_dir = store_dir if store_dir is not None else config.get("store_dir")
        self.cache = ResultCache(self.cache_dir) if self.cache_dir else None
        self.max_tasks = max_tasks
        self.idle_exit = idle_exit
        self.poll_interval = poll_interval
        self.tasks_done = 0
        self._rng = random.Random()  # backoff jitter

    # -- environment -------------------------------------------------------

    def _setup_process(self) -> None:
        """Same process discipline as the local pool's initializer
        (:func:`repro.runner.batch._init_worker`): cyclic GC off, which
        is sound only while a finished simulation is in no reference
        cycle (guarded by ``tests/core/test_processor.py``'s
        acyclicity tests), and the shared stores wired."""
        import gc

        gc.disable()
        gc.freeze()
        if self.store_dir:
            from repro.core.engine import set_warm_store
            from repro.trace.stream import set_trace_store

            set_trace_store(self.store_dir, save_on_generate=False)
            set_warm_store(self.store_dir)

    # -- claiming ----------------------------------------------------------

    def _claim_next(self):
        """The oldest claimable task: no published result, no live lease,
        attempt budget not exhausted.  Expired leases are reclaimed on
        the way (the worker-side half of self-healing)."""
        for task_id in self.queue.task_ids():
            base = base_task_id(task_id)
            if self.queue.has_result(base):
                continue
            if self.queue.failure_count(base) >= self.policy.max_attempts:
                continue  # poisoned: the front end raises, not us
            lease = self.queue.read_lease(task_id, self.lease_ttl)
            if lease is not None:
                if not lease.expired():
                    continue
                if not self.queue.reclaim(task_id):
                    continue  # another reclaimer won the rename
            if self.queue.try_claim(task_id, self.worker_id, self.lease_ttl):
                job = self.queue.load_task(task_id)
                if job is None:
                    # Record consumed (batch cleaned up) or torn: drop
                    # the lease and move on.
                    self.queue.release(task_id, self.worker_id)
                    continue
                return task_id, job
        return None

    # -- execution ---------------------------------------------------------

    def _execute_claimed(self, task_id: str, job) -> None:
        from repro.runner.faults import maybe_inject_fault

        renewer = _LeaseRenewer(self.queue, task_id, self.worker_id,
                                self.lease_ttl, self.heartbeat_interval)
        renewer.start()
        t0 = time.monotonic()
        try:
            directive = maybe_inject_fault(job, context="worker")
            if directive is not None and directive.op == "stale_lease":
                # Chaos: stop renewing and stall past the ttl, then
                # execute anyway — the front end reclaims the expired
                # lease meanwhile and the publish race below settles it.
                renewer.freeze()
                time.sleep(directive.hang_seconds)
            before = self.cache.corrupt_fallbacks if self.cache else 0
            result = job.execute(self.cache)
            stats = {
                "cache_fallbacks":
                    (self.cache.corrupt_fallbacks - before) if self.cache else 0
            }
        except (KeyboardInterrupt, SystemExit):
            renewer.stop()
            self.queue.release(task_id, self.worker_id)
            raise
        except BaseException as exc:
            renewer.stop()
            attempt = self.queue.record_failure(
                task_id, f"{type(exc).__name__}: {exc}"
            )
            logger.warning("task %s failed (attempt %d/%d): %s: %s",
                           task_id, attempt, self.policy.max_attempts,
                           type(exc).__name__, exc)
            if attempt < self.policy.max_attempts:
                # Hold the lease through the backoff so the retry is
                # paced, then release it for any worker to take.
                time.sleep(self.policy.backoff_for(attempt, rng=self._rng))
            self.queue.release(task_id, self.worker_id)
            return
        renewer.stop()
        won = self.queue.publish(task_id, {
            "result": result,
            "stats": stats,
            "seconds": time.monotonic() - t0,
            "worker": self.worker_id,
            "task_id": task_id,
            "attempt": self.queue.failure_count(base_task_id(task_id)) + 1,
        })
        if not won:
            logger.info("task %s: another execution published first "
                        "(idempotent — identical bytes)", task_id)
        self.queue.release(task_id, self.worker_id)
        self.tasks_done += 1

    # -- the loop ----------------------------------------------------------

    def run(self) -> int:
        """Pull tasks until stopped; returns the number executed."""
        self._setup_process()
        self.queue.heartbeat_worker(self.worker_id)
        logger.info("worker %s serving queue %s", self.worker_id,
                    self.queue.root)
        last_activity = time.monotonic()
        try:
            while not self.queue.stop_requested():
                if (self.max_tasks is not None
                        and self.tasks_done >= self.max_tasks):
                    break
                claimed = self._claim_next()
                if claimed is None:
                    if (self.idle_exit is not None
                            and time.monotonic() - last_activity
                            > self.idle_exit):
                        break
                    self.queue.heartbeat_worker(self.worker_id)
                    time.sleep(self.poll_interval)
                    continue
                self._execute_claimed(*claimed)
                last_activity = time.monotonic()
        finally:
            self.queue.unregister_worker(self.worker_id)
        return self.tasks_done


def run_worker(args) -> int:
    """``repro worker`` CLI entry point (argparse namespace in, exit
    status out)."""
    logging.basicConfig(
        level=logging.INFO,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    lease_ttl = args.lease_ttl
    if lease_ttl is None:
        lease_ttl = Settings.from_env().lease_ttl
    worker = Worker(
        args.queue,
        worker_id=args.worker_id,
        lease_ttl=lease_ttl,
        heartbeat_interval=args.heartbeat,
        cache_dir=args.cache,
        store_dir=args.store,
        max_tasks=args.max_tasks,
        idle_exit=args.idle_exit,
    )
    done = worker.run()
    logger.info("worker %s exiting after %d task(s)", worker.worker_id, done)
    return 0
