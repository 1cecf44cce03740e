"""Supervised, fault-tolerant execution of runner jobs.

:class:`SupervisedExecutor` is the one local dispatcher behind
:class:`~repro.runner.batch.BatchRunner`'s worker pool. It submits jobs
individually and tracks each future:

* **per-job timeouts** — submissions are capped at the pool's worker
  count, so a job's deadline (assigned at submission, from its
  :class:`RetryPolicy`; heavy jobs — screen ladders, bundles — get
  ``_HEAVY_TIMEOUT_FACTOR`` times the budget) starts when the job
  actually starts running, not when the batch was enqueued: queued jobs
  cannot burn their wall-clock budget waiting for a worker. A hung
  worker cannot be cancelled, so an expired deadline kills the pool's
  processes outright and resubmits the surviving in-flight jobs; the
  timed-out job retries whole against its bounded attempt count, and
  the kill counts against the pool-respawn budget like any other break.
  That whole-job retry is the local pool's only tail rescue.
* **retry with exponential backoff** — failed or timed-out jobs are
  re-submitted after ``backoff_base * 2**(attempt-1)`` seconds, at most
  ``_BACKOFF_MAX``. Retries are free and safe because every job is a pure
  function of its ``cache_key_fields()`` identity (the idempotency
  contract of :mod:`repro.runner.jobs`), so a re-execution is
  bit-identical to the first.
* **pool self-healing** — a broken pool (worker killed, ``os._exit``,
  unpicklable crash) is respawned instead of propagating
  ``BrokenProcessPool``; in-flight jobs that never completed resubmit
  with no attempt penalty (the breakage is the pool's fault, not
  theirs), while one that already finished with a real job exception
  is charged the failed attempt like any other failure.
* **graceful degradation** — when the pool breaks more than
  ``max_pool_respawns`` times within one batch (deadline-triggered
  kills included), the remaining jobs drain *inline* in the parent
  under the same retry budget and :class:`JobError` contract, so a
  hostile environment degrades a sweep to sequential speed instead of
  killing it.

Results keep the BatchRunner ordering contract — ``results[i]`` is the
outcome of ``jobs[i]`` — and are bit-identical to inline execution
(pinned by ``tests/runner/test_resilience.py``). Every recovery event is
counted in a structured :class:`RunReport` threaded through the
experiment drivers and the CLI, so sweeps report how much fault handling
they needed.
"""

from __future__ import annotations

import heapq
import itertools
import logging
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "RetryPolicy",
    "RunReport",
    "SupervisedExecutor",
    "JobError",
    "JobTimeoutError",
]

logger = logging.getLogger(__name__)

#: retry ``n`` waits ``backoff_base * _BACKOFF_FACTOR**(n-1)`` seconds,
#: clamped to ``_BACKOFF_MAX``
_BACKOFF_FACTOR = 2.0
_BACKOFF_MAX = 5.0

#: a heavy job (``job.heavy``: a screen ladder, a bundle) gets this many
#: times the per-job timeout
_HEAVY_TIMEOUT_FACTOR = 4.0


class JobError(RuntimeError):
    """A job exhausted its attempt budget; the last failure is chained as
    ``__cause__``."""

    def __init__(self, message: str, job=None, attempts: int = 0) -> None:
        super().__init__(message)
        self.job = job
        self.attempts = attempts


class JobTimeoutError(JobError):
    """A job's final attempt exceeded its wall-clock budget."""


@dataclass(frozen=True)
class RetryPolicy:
    """Fault-handling values for one :class:`SupervisedExecutor`; each
    field is a ``REPRO_*`` setting, and
    :meth:`repro.settings.Settings.retry_policy` builds the one the
    environment describes.

    max_attempts:
        Executions a job may consume (first try included) before its
        failure propagates as :class:`JobError` / :class:`JobTimeoutError`.
    backoff_base:
        Retry ``n`` waits ``backoff_base * 2**(n-1)`` seconds (at most
        ``_BACKOFF_MAX``) before resubmitting.
    timeout:
        Per-job wall-clock budget in seconds, measured from submission
        — which coincides with the job starting, because the executor
        caps in-flight submissions at the worker count. ``None`` or 0
        disables deadline tracking (a hung worker then blocks its batch
        forever). Heavy jobs get ``timeout * _HEAVY_TIMEOUT_FACTOR``.
    max_pool_respawns:
        Pool breakages tolerated within one batch before the executor
        degrades to inline execution for the remaining jobs.
    """

    max_attempts: int = 3
    backoff_base: float = 0.1
    timeout: Optional[float] = None
    max_pool_respawns: int = 3

    def timeout_for(self, job) -> Optional[float]:
        """The job's wall-clock budget (heavy jobs get a larger one)."""
        if self.timeout is None or self.timeout <= 0:
            return None
        if getattr(job, "heavy", False):
            return self.timeout * _HEAVY_TIMEOUT_FACTOR
        return self.timeout

    def backoff_for(self, attempt: int) -> float:
        """Seconds to wait before retry number ``attempt`` (1-based)."""
        delay = self.backoff_base * _BACKOFF_FACTOR ** max(0, attempt - 1)
        return min(_BACKOFF_MAX, max(0.0, delay))


#: RunReport fields that size a run rather than count a recovery event
_VOLUME_FIELDS = frozenset(
    {"jobs", "batches", "attempts", "wall_seconds", "job_seconds_total",
     "job_seconds_max"}
)


@dataclass
class RunReport:
    """Structured account of how much fault handling a run needed.

    Counters accumulate across every batch executed through one
    :class:`~repro.runner.batch.BatchRunner` (inline and pooled alike);
    ``job_seconds_total`` and ``job_seconds_max`` sum and bound the
    per-job wall clock of each completed job (successful attempt only,
    submission to completion), so a long-lived runner's report stays
    the same size however many jobs it runs.  ``as_dict`` and
    ``eventful`` walk the dataclass fields, so a new counter needs no
    other edit.
    """

    jobs: int = 0
    batches: int = 0
    attempts: int = 0
    retries: int = 0
    timeouts: int = 0
    failures: int = 0
    pool_respawns: int = 0
    inline_fallbacks: int = 0
    cache_fallbacks: int = 0
    wall_seconds: float = 0.0
    job_seconds_total: float = 0.0
    job_seconds_max: float = 0.0

    @property
    def eventful(self) -> bool:
        """True when any recovery machinery fired (a fault-free run of a
        healthy pool is not eventful)."""
        events = (f.name for f in fields(self) if f.name not in _VOLUME_FIELDS)
        return any(getattr(self, name) for name in events)

    @contextmanager
    def events_only(self) -> Iterator["RunReport"]:
        """Count recovery events but no volume inside the block.

        The runner's own prep work (packing traces, computing warm
        snapshots) is not a job the caller submitted: ``jobs``,
        ``batches``, ``attempts`` and the timings are restored on exit,
        while a prep retry, timeout, respawn or failure stays counted.
        """
        saved = {name: getattr(self, name) for name in _VOLUME_FIELDS}
        try:
            yield self
        finally:
            for name, value in saved.items():
                setattr(self, name, value)

    def record_job(self, seconds: float) -> None:
        """Account one completed job's wall clock."""
        self.job_seconds_total += seconds
        self.job_seconds_max = max(self.job_seconds_max, seconds)

    def absorb_worker_stats(self, stats: Optional[Dict[str, int]]) -> None:
        """Fold one worker execution's side-band counters (currently the
        corrupt-cache-entry fallbacks it recovered from) into the report."""
        if stats:
            self.cache_fallbacks += int(stats.get("cache_fallbacks", 0))

    def as_dict(self) -> dict:
        out: dict = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = round(value, 3) if isinstance(value, float) else value
        return out

    def describe(self) -> str:
        """One-line summary for sweep footers and logs."""
        return (
            f"{self.jobs} jobs / {self.attempts} attempts in "
            f"{self.wall_seconds:.1f}s — {self.retries} retries, "
            f"{self.timeouts} timeouts, {self.pool_respawns} pool "
            f"respawns, {self.inline_fallbacks} inline fallbacks, "
            f"{self.cache_fallbacks} cache fallbacks, "
            f"{self.failures} hard failures"
        )


@dataclass
class _Flight:
    """One in-flight submission of the job at batch position ``index``."""

    index: int
    attempt: int
    started: float
    deadline: Optional[float]


class _BatchState:
    """Bookkeeping for one :meth:`SupervisedExecutor.run` call."""

    def __init__(self, n: int) -> None:
        self.results: List = [None] * n
        self.done: List[bool] = [False] * n
        self.remaining = n
        #: (index, attempt) pairs awaiting submission
        self.queue: deque = deque((i, 1) for i in range(n))
        #: min-heap of (ready_time, seq, index, attempt) backoff timers
        self.retries: List[Tuple[float, int, int, int]] = []
        self.inflight: Dict[object, _Flight] = {}
        self.pool_breaks = 0
        self.seq = itertools.count()


class SupervisedExecutor:
    """Per-job-future driver over a replaceable ``ProcessPoolExecutor``.

    ``pool_factory`` builds a fresh pool (called lazily and again after
    every respawn); ``worker_fn`` is the picklable module-level function
    submitted per job and must return ``(result, stats_dict)``;
    ``inline_fn`` executes a job in the parent with the same return
    contract (the degraded path, which never touches the pool).

    ``max_inflight`` (the pool's worker count) caps concurrent
    submissions so jobs are handed to the pool only when a worker can
    take them — a queued-but-unstarted job must not burn its wall-clock
    budget waiting behind a long batch.
    """

    def __init__(
        self,
        pool_factory: Callable[[], object],
        worker_fn: Callable,
        inline_fn: Callable,
        max_inflight: int,
        policy: Optional[RetryPolicy] = None,
        report: Optional[RunReport] = None,
    ) -> None:
        self._pool_factory = pool_factory
        self._worker_fn = worker_fn
        self._inline_fn = inline_fn
        self.policy = policy if policy is not None else RetryPolicy()
        self.report = report if report is not None else RunReport()
        self._max_inflight = max(1, max_inflight)
        self._pool = None
        self._inline_only = False

    # -- pool lifecycle ----------------------------------------------------

    def pool(self):
        if self._pool is None:
            self._pool = self._pool_factory()
        return self._pool

    def _shutdown_pool(self, kill: bool = False) -> None:
        """Tear the current pool down; ``kill`` terminates its worker
        processes first (the only way to reclaim a hung worker)."""
        pool, self._pool = self._pool, None
        if pool is None:
            return
        if kill:
            for proc in list(getattr(pool, "_processes", {}).values() or []):
                try:
                    proc.terminate()
                except Exception:  # pragma: no cover - already-dead worker
                    pass
        try:
            pool.shutdown(wait=not kill, cancel_futures=True)
        except Exception:  # pragma: no cover - broken executor internals
            pass

    def close(self, kill: bool = False) -> None:
        """Shut the pool down (idempotent)."""
        self._shutdown_pool(kill=kill)

    # -- execution ---------------------------------------------------------

    def run(self, jobs: Sequence) -> List:
        """Execute every job with supervision; ``results[i]`` corresponds
        to ``jobs[i]`` exactly as the unsupervised path's did."""
        jobs = list(jobs)
        if not jobs:
            return []
        self._inline_only = False
        report = self.report
        report.batches += 1
        report.jobs += len(jobs)
        st = _BatchState(len(jobs))
        t0 = time.monotonic()
        try:
            self._drive(jobs, st)
        except BaseException:
            # A batch that raises (hard job failure, Ctrl-C) must not
            # leak a pool full of stale futures — or live workers — into
            # the next run() call or past the interpreter.
            self._shutdown_pool(kill=True)
            raise
        finally:
            report.wall_seconds += time.monotonic() - t0
        return st.results

    def _drive(self, jobs: List, st: _BatchState) -> None:
        while st.remaining:
            now = time.monotonic()
            while st.retries and st.retries[0][0] <= now:
                _, _, i, attempt = heapq.heappop(st.retries)
                st.queue.append((i, attempt))
            if self._inline_only:
                self._drain_inline(jobs, st)
                return
            self._submit_queued(jobs, st)
            if self._inline_only or not st.remaining:
                continue
            if not st.inflight:
                if st.retries:
                    # Waiting purely on backoff timers.
                    delay = st.retries[0][0] - time.monotonic()
                    if delay > 0:
                        time.sleep(min(delay, 0.5))
                continue
            finished = self._wait_for_events(st, self._wait_timeout(st))
            if self._harvest(finished, jobs, st):
                self._recover_pool_break(jobs, st)
                continue
            self._check_deadlines(jobs, st)

    def _submit_queued(self, jobs: List, st: _BatchState) -> None:
        while st.queue and not self._inline_only:
            pool = self.pool()
            # Submit only what the workers can start right now: an
            # eagerly-enqueued job would begin burning its wall-clock
            # budget (deadlines start at submission) while still waiting
            # for a worker, turning queue wait into spurious timeouts.
            if len(st.inflight) >= self._max_inflight:
                return
            i, attempt = st.queue[0]
            job = jobs[i]
            try:
                fut = pool.submit(self._worker_fn, job)
            except BrokenExecutor:
                self._recover_pool_break(jobs, st)
                continue
            st.queue.popleft()
            now = time.monotonic()
            budget = self.policy.timeout_for(job)
            st.inflight[fut] = _Flight(
                i, attempt, now, None if budget is None else now + budget
            )
            self.report.attempts += 1
            if attempt > 1:
                self.report.retries += 1

    def _wait_timeout(self, st: _BatchState) -> Optional[float]:
        bounds = [
            fl.deadline for fl in st.inflight.values() if fl.deadline is not None
        ]
        if st.retries:
            bounds.append(st.retries[0][0])
        if not bounds:
            return None
        return max(0.01, min(bounds) - time.monotonic())

    def _wait_for_events(self, st: _BatchState, timeout: Optional[float]):
        """Block until a future completes, a deadline nears, or a backoff
        timer is due (a method so tests can intercept it)."""
        done, _ = wait(
            list(st.inflight), timeout=timeout, return_when=FIRST_COMPLETED
        )
        return done

    def _harvest(self, finished, jobs: List, st: _BatchState) -> bool:
        """Absorb completed futures; True when the pool broke."""
        broken = False
        for fut in finished:
            fl = st.inflight.pop(fut, None)
            if fl is None or st.done[fl.index]:
                continue
            try:
                value = fut.result()
            except BrokenExecutor:
                # The pool's fault, not the job's: resubmit with no
                # attempt penalty (degradation is bounded by the
                # max_pool_respawns budget instead).
                broken = True
                st.queue.append((fl.index, fl.attempt))
            except (KeyboardInterrupt, SystemExit):
                raise
            except BaseException as exc:
                self._record_failure(jobs, st, fl, exc)
            else:
                self._record_success(st, fl, value)
        return broken

    def _record_success(self, st: _BatchState, fl: _Flight, value) -> None:
        result, stats = value
        st.results[fl.index] = result
        st.done[fl.index] = True
        st.remaining -= 1
        self.report.record_job(time.monotonic() - fl.started)
        self.report.absorb_worker_stats(stats)

    def _record_failure(self, jobs, st: _BatchState, fl: _Flight, exc) -> None:
        if fl.attempt >= self.policy.max_attempts:
            self.report.failures += 1
            raise JobError(
                f"job {fl.index} failed after {fl.attempt} attempts: {exc!r}",
                job=jobs[fl.index],
                attempts=fl.attempt,
            ) from exc
        delay = self.policy.backoff_for(fl.attempt)
        logger.warning(
            "job %d attempt %d failed (%s: %s); retrying in %.2fs",
            fl.index,
            fl.attempt,
            type(exc).__name__,
            exc,
            delay,
        )
        heapq.heappush(
            st.retries,
            (time.monotonic() + delay, next(st.seq), fl.index, fl.attempt + 1),
        )

    def _salvage_inflight(self, jobs: List, st: _BatchState) -> None:
        """The pool is about to be torn down: keep results that beat the
        failure, charge completed failures their attempt, and requeue
        futures that never finished with no attempt penalty (the
        breakage is the pool's fault, not theirs)."""
        for fut, fl in list(st.inflight.items()):
            if st.done[fl.index]:
                continue
            if not fut.done() or fut.cancelled():
                st.queue.append((fl.index, fl.attempt))
                continue
            try:
                value = fut.result()
            except BrokenExecutor:
                # The pool died under the job: not the job's failure.
                st.queue.append((fl.index, fl.attempt))
            except (KeyboardInterrupt, SystemExit):
                raise
            except BaseException as exc:
                # The job genuinely failed before the pool went down:
                # count the attempt (and propagate exhaustion) exactly
                # like a harvest-time failure — a deterministic failure
                # must not dodge max_attempts by riding pool breaks.
                self._record_failure(jobs, st, fl, exc)
            else:
                self._record_success(st, fl, value)
        st.inflight.clear()

    def _recover_pool_break(self, jobs: List, st: _BatchState) -> None:
        self._salvage_inflight(jobs, st)
        self._shutdown_pool(kill=True)
        st.pool_breaks += 1
        if st.pool_breaks > self.policy.max_pool_respawns:
            logger.error(
                "worker pool broke %d times; degrading %d remaining "
                "job(s) to inline execution",
                st.pool_breaks,
                st.remaining,
            )
            self._inline_only = True
            return
        delay = self.policy.backoff_for(st.pool_breaks)
        logger.warning(
            "worker pool broke (break %d/%d); respawning in %.2fs",
            st.pool_breaks,
            self.policy.max_pool_respawns,
            delay,
        )
        self.report.pool_respawns += 1
        if delay > 0:
            time.sleep(delay)
        # The fresh pool is created lazily by the next submission.

    def _check_deadlines(self, jobs: List, st: _BatchState) -> None:
        now = time.monotonic()
        expired = [
            (fut, fl)
            for fut, fl in st.inflight.items()
            if fl.deadline is not None and now >= fl.deadline and not fut.done()
        ]
        if not expired:
            return
        hung = False
        for fut, fl in expired:
            st.inflight.pop(fut)
            if fut.cancel():
                # Never started: the budget burned in the executor queue
                # (possible transiently around a pool respawn), not in
                # the job. Requeue with no penalty, no pool kill.
                st.queue.append((fl.index, fl.attempt))
                continue
            hung = True
            self.report.timeouts += 1
            timed_out = jobs[fl.index]
            budget = self.policy.timeout_for(timed_out)
            if fl.attempt >= self.policy.max_attempts:
                self.report.failures += 1
                raise JobTimeoutError(
                    f"job {fl.index} exceeded its {budget:.1f}s budget on "
                    f"final attempt {fl.attempt}",
                    job=timed_out,
                    attempts=fl.attempt,
                )
            delay = self.policy.backoff_for(fl.attempt)
            logger.warning(
                "job %d attempt %d exceeded its %.1fs budget; killing the "
                "pool and retrying in %.2fs",
                fl.index,
                fl.attempt,
                budget,
                delay,
            )
            heapq.heappush(
                st.retries,
                (now + delay, next(st.seq), fl.index, fl.attempt + 1),
            )
        if not hung:
            return
        # A running future cannot be cancelled: reclaim the hung worker
        # by killing the whole pool. The kill goes through the shared
        # recovery path so it salvages the innocent bystanders AND
        # counts against the respawn budget — an environment that hangs
        # repeatedly must degrade to inline like one that crashes
        # repeatedly.
        self._recover_pool_break(jobs, st)

    def _drain_inline(self, jobs: List, st: _BatchState) -> None:
        """Degraded path: run the unfinished jobs in the parent under the
        same retry budget and :class:`JobError` failure contract as the
        supervised pool path (only deadlines are gone — an inline job
        cannot be reclaimed)."""
        # Carry each job's attempt count over so the total budget stays
        # bounded by max_attempts across both execution paths.
        attempts: Dict[int, int] = {i: a for i, a in st.queue}
        attempts.update((i, a) for _, _, i, a in st.retries)
        st.queue.clear()
        st.retries.clear()
        for i, job in enumerate(jobs):
            if st.done[i]:
                continue
            self.report.inline_fallbacks += 1
            attempt = attempts.get(i, 1)
            while True:
                t0 = time.monotonic()
                self.report.attempts += 1
                if attempt > 1:
                    self.report.retries += 1
                try:
                    result, stats = self._inline_fn(job)
                except (KeyboardInterrupt, SystemExit):
                    raise
                except BaseException as exc:
                    if attempt >= self.policy.max_attempts:
                        self.report.failures += 1
                        raise JobError(
                            f"job {i} failed inline after {attempt} "
                            f"attempts: {exc!r}",
                            job=job,
                            attempts=attempt,
                        ) from exc
                    delay = self.policy.backoff_for(attempt)
                    logger.warning(
                        "job %d attempt %d failed inline (%s: %s); "
                        "retrying in %.2fs",
                        i,
                        attempt,
                        type(exc).__name__,
                        exc,
                        delay,
                    )
                    if delay > 0:
                        time.sleep(delay)
                    attempt += 1
                    continue
                st.results[i] = result
                st.done[i] = True
                st.remaining -= 1
                self.report.record_job(time.monotonic() - t0)
                self.report.absorb_worker_stats(stats)
                break
