"""Supervised dispatch: equivalence with inline execution,
policy/report plumbing, submission/deadline/salvage semantics, Ctrl-C
behaviour, lifecycle hygiene."""

import dataclasses
import gc
import os
import time
from concurrent.futures import BrokenExecutor, Future
from typing import ClassVar

import pytest

from repro.runner import (
    BatchRunner,
    RetryPolicy,
    RunReport,
    SimJob,
    SupervisedExecutor,
)
from repro.runner.continuation import ContinuationJob, ContinuationRun
from repro.runner.resilience import JobError, _BatchState, _Flight
from repro.trace.profiling import PROFILE_LENGTH, ProfileJob
from repro.workloads.definitions import get_workload


# ---------------------------------------------------------------- equivalence


def test_supervised_matches_inline(sim_jobs):
    """The core contract: the supervised per-job-future path returns
    bit-identical, identically ordered results to plain inline
    execution."""
    with BatchRunner(workers=1, trace_store=False) as seq:
        inline = seq.run(sim_jobs)
    with BatchRunner(workers=2, trace_store=False) as sup:
        supervised = sup.run(sim_jobs)
        report = sup.report
    assert supervised == inline
    assert [r.mapping for r in supervised] == [j.mapping for j in sim_jobs]
    # A healthy run is not eventful, and accounting is exact.
    assert not report.eventful
    assert report.jobs == report.attempts == len(sim_jobs)
    assert len(report.job_seconds) == len(sim_jobs)


def test_report_accumulates_across_batches(sim_jobs):
    with BatchRunner(workers=2, trace_store=False) as runner:
        runner.run(sim_jobs)
        runner.run(sim_jobs)
        assert runner.report.batches == 2
        assert runner.report.jobs == 2 * len(sim_jobs)


def test_inline_batches_share_the_report(sim_jobs):
    with BatchRunner(workers=1) as runner:
        runner.run(sim_jobs[:2])
    assert runner.report.batches == 1
    assert runner.report.jobs == 2
    assert runner.report.attempts == 2
    assert runner.report.wall_seconds > 0


def test_hard_failure_raises_job_error_with_context():
    bad = SimJob("M8", ("gzip", "twolf"), (0, 1), 300)  # invalid mapping
    good = [SimJob("M8", ("gzip", "twolf"), (0, 0), 300, seed=i)
            for i in range(3)]
    policy = RetryPolicy(max_attempts=2, backoff_base=0.01)
    with BatchRunner(workers=2, trace_store=False, policy=policy) as runner:
        with pytest.raises(JobError) as exc_info:
            runner.run(good + [bad])
    assert exc_info.value.attempts == 2
    assert exc_info.value.job == bad
    assert runner.report.retries >= 1


# ---------------------------------------------------------------- RetryPolicy


def test_backoff_schedule_is_exponential_and_clamped():
    p = RetryPolicy(backoff_base=0.1, backoff_factor=2.0, backoff_max=0.5)
    assert p.backoff_for(1) == pytest.approx(0.1)
    assert p.backoff_for(2) == pytest.approx(0.2)
    assert p.backoff_for(3) == pytest.approx(0.4)
    assert p.backoff_for(4) == pytest.approx(0.5)  # clamped
    assert p.backoff_for(10) == pytest.approx(0.5)


def test_heavy_jobs_get_a_larger_timeout_budget(sim_jobs):
    from repro.runner.screening import ScreenJob

    p = RetryPolicy(timeout=10.0, heavy_timeout_factor=4.0)
    light = sim_jobs[0]
    heavy = ScreenJob("M8", ("gzip", "twolf"), ((0, 0),), 300)
    assert heavy.heavy and not light.heavy
    assert p.timeout_for(light) == pytest.approx(10.0)
    assert p.timeout_for(heavy) == pytest.approx(40.0)
    assert RetryPolicy(timeout=None).timeout_for(light) is None


# ------------------------------------------------- supervision internals


class _StubPool:
    """Pool stand-in whose submit() never runs anything, so the inflight
    set is exactly what the supervisor chose to submit."""

    def __init__(self, max_workers=2):
        self._max_workers = max_workers
        self.submitted = []

    def submit(self, fn, *args):
        fut = Future()
        self.submitted.append(fut)
        return fut

    def shutdown(self, wait=True, cancel_futures=False):
        pass


def _stub_executor(policy=None, max_workers=2, **kw):
    pool = _StubPool(max_workers)
    ex = SupervisedExecutor(
        pool_factory=lambda: pool,
        worker_fn=lambda job: (job, None),
        inline_fn=lambda job: (job, None),
        policy=policy or RetryPolicy(backoff_base=0.0),
        **kw,
    )
    return ex, pool


def test_submissions_capped_at_worker_count():
    """Jobs are handed to the pool only when a worker can take them, so
    a per-job deadline (assigned at submission) starts when the job
    starts running — queued jobs must not burn their wall-clock budget
    waiting behind a long batch."""
    ex, pool = _stub_executor(max_workers=2)
    jobs = list(range(6))
    st = _BatchState(len(jobs))
    ex._submit_queued(jobs, st)
    assert len(st.inflight) == 2  # capped at pool._max_workers
    assert len(st.queue) == 4
    # A completed future frees a slot; the refill tops back up to the cap.
    fut = pool.submitted[0]
    fut.set_result((0, None))
    assert not ex._harvest({fut}, jobs, st)
    ex._submit_queued(jobs, st)
    assert len(st.inflight) == 2
    assert len(st.queue) == 3
    assert ex.report.attempts == 3


def test_explicit_max_inflight_overrides_pool_size():
    ex, _pool = _stub_executor(max_workers=4, max_inflight=1)
    st = _BatchState(3)
    ex._submit_queued(list(range(3)), st)
    assert len(st.inflight) == 1


def test_expired_unstarted_future_is_cancelled_without_penalty():
    """A deadline that elapses while the future is still pending (e.g.
    transiently around a pool respawn) cancels the future and requeues
    the job: no timeout charged, no attempt burned, no pool kill."""
    ex, pool = _stub_executor(policy=RetryPolicy(timeout=5.0))
    jobs = ["j0"]
    st = _BatchState(1)
    ex._submit_queued(jobs, st)
    (fut,) = pool.submitted
    st.inflight[fut].deadline = time.monotonic() - 1.0  # already expired
    ex._check_deadlines(jobs, st)
    assert fut.cancelled()
    assert list(st.queue) == [(0, 1)]  # same attempt, back in line
    assert ex.report.timeouts == 0
    assert ex.report.pool_respawns == 0
    assert ex._pool is pool  # the healthy pool survived


def test_salvage_charges_completed_failures_their_attempt():
    """A future that finished with a real job exception before the pool
    went down counts the attempt (a deterministic failure must not dodge
    max_attempts by riding pool breaks); only never-completed futures
    requeue penalty-free."""
    policy = RetryPolicy(max_attempts=3, backoff_base=0.0)
    ex, _pool = _stub_executor(policy=policy)
    jobs = ["a", "b", "c"]
    st = _BatchState(3)
    st.queue.clear()
    failed = Future()
    failed.set_exception(ValueError("boom"))
    pending = Future()
    pool_fault = Future()
    pool_fault.set_exception(BrokenExecutor("pool died"))
    st.inflight[failed] = _Flight(0, 1, time.monotonic(), None)
    st.inflight[pending] = _Flight(1, 2, time.monotonic(), None)
    st.inflight[pool_fault] = _Flight(2, 2, time.monotonic(), None)
    ex._salvage_inflight(jobs, st)
    assert not st.inflight
    # Job 0 failed for real: charged, waiting in the retry heap at
    # attempt 2. Jobs 1 and 2 never completed / died with the pool:
    # requeued at their old attempt numbers.
    assert [(i, a) for _, _, i, a in sorted(st.retries)] == [(0, 2)]
    assert sorted(st.queue) == [(1, 2), (2, 2)]


def test_salvage_propagates_exhausted_attempts_as_job_error():
    policy = RetryPolicy(max_attempts=2, backoff_base=0.0)
    ex, _pool = _stub_executor(policy=policy)
    st = _BatchState(1)
    st.queue.clear()
    failed = Future()
    failed.set_exception(ValueError("permanent"))
    st.inflight[failed] = _Flight(0, 2, time.monotonic(), None)
    with pytest.raises(JobError) as exc_info:
        ex._salvage_inflight(["the-job"], st)
    assert exc_info.value.attempts == 2
    assert exc_info.value.job == "the-job"
    assert ex.report.failures == 1


def test_inline_drain_retries_and_keeps_the_failure_contract():
    """The degraded path honours the same retry budget and JobError
    contract as the pool path."""
    calls = {"n": 0}

    def flaky(job):
        calls["n"] += 1
        if calls["n"] == 1:
            raise ValueError("transient")
        return job * 10, None

    ex = SupervisedExecutor(
        pool_factory=lambda: _StubPool(),
        worker_fn=None,
        inline_fn=flaky,
        policy=RetryPolicy(max_attempts=3, backoff_base=0.0),
    )
    st = _BatchState(2)
    ex._drain_inline([1, 2], st)
    assert st.results == [10, 20]
    assert st.remaining == 0
    assert ex.report.retries == 1
    assert ex.report.failures == 0
    assert ex.report.inline_fallbacks == 2  # per job, not per attempt
    assert ex.report.attempts == 3


def test_inline_drain_exhaustion_raises_job_error():
    def always_fail(job):
        raise ValueError("permanent")

    ex = SupervisedExecutor(
        pool_factory=lambda: _StubPool(),
        worker_fn=None,
        inline_fn=always_fail,
        policy=RetryPolicy(max_attempts=2, backoff_base=0.0),
    )
    st = _BatchState(1)
    with pytest.raises(JobError) as exc_info:
        ex._drain_inline([7], st)
    assert exc_info.value.attempts == 2
    assert exc_info.value.job == 7
    assert ex.report.failures == 1
    assert ex.report.attempts == 2


def test_inline_drain_carries_prior_attempts_into_the_budget():
    """A job that already burned pool attempts keeps its count inline:
    the total budget is max_attempts across both paths."""

    def always_fail(job):
        raise ValueError("permanent")

    ex = SupervisedExecutor(
        pool_factory=lambda: _StubPool(),
        worker_fn=None,
        inline_fn=always_fail,
        policy=RetryPolicy(max_attempts=3, backoff_base=0.0),
    )
    st = _BatchState(1)
    st.queue.clear()
    st.queue.append((0, 3))  # two pool attempts already failed
    with pytest.raises(JobError) as exc_info:
        ex._drain_inline(["j"], st)
    assert exc_info.value.attempts == 3
    assert ex.report.attempts == 1  # only the one inline execution


# ------------------------------------------------------------------ RunReport


def test_run_report_merge_and_dict_round_trip():
    a = RunReport(jobs=2, attempts=3, retries=1, job_seconds=[0.1, 0.2])
    b = RunReport(jobs=1, attempts=1, pool_respawns=1, wall_seconds=1.5,
                  job_seconds=[0.3])
    a.merge(b)
    assert (a.jobs, a.attempts, a.retries, a.pool_respawns) == (3, 4, 1, 1)
    assert a.job_seconds == [0.1, 0.2, 0.3]
    d = a.as_dict()
    assert d["jobs"] == 3
    assert d["job_seconds_max"] == pytest.approx(0.3)
    assert a.eventful  # retries + respawns fired
    assert not RunReport(jobs=5, attempts=5).eventful
    assert "1 retries" in a.describe()


def test_report_absorbs_worker_stats():
    r = RunReport()
    r.absorb_worker_stats(None)
    r.absorb_worker_stats({})
    r.absorb_worker_stats({"cache_fallbacks": 2})
    assert r.cache_fallbacks == 2


# ------------------------------------------------------------------ lifecycle


def test_keyboard_interrupt_cleans_up_and_runner_recovers(
    monkeypatch, sim_jobs
):
    """Ctrl-C mid-batch must propagate promptly, kill the pool rather
    than leaking workers, and leave the runner usable afterwards."""
    calls = {"n": 0}
    original = SupervisedExecutor._wait_for_events

    def interrupt_once(self, st, timeout):
        if calls["n"] == 0:
            calls["n"] += 1
            raise KeyboardInterrupt
        return original(self, st, timeout)

    monkeypatch.setattr(SupervisedExecutor, "_wait_for_events", interrupt_once)
    runner = BatchRunner(workers=2, trace_store=False)
    try:
        with pytest.raises(KeyboardInterrupt):
            runner.run(sim_jobs)
        # The supervisor (and its pool) was torn down on the way out...
        assert runner._supervisor is None
        # ...and a fresh run still works (jobs are idempotent).
        results = runner.run(sim_jobs)
        assert [r.mapping for r in results] == [j.mapping for j in sim_jobs]
    finally:
        runner.close()


def test_close_is_idempotent_and_del_safe(sim_jobs):
    runner = BatchRunner(workers=2, trace_store=False)
    runner.run(sim_jobs)
    runner.close()
    runner.close()  # double close must be a no-op
    runner.__del__()  # and explicit finalization after close too
    assert runner._supervisor is None


def test_supervised_executor_close_idempotent():
    ex = SupervisedExecutor(
        pool_factory=lambda: (_ for _ in ()).throw(AssertionError),
        worker_fn=None,
        inline_fn=None,
    )
    assert ex.run([]) == []  # empty batch never builds a pool
    ex.close()
    ex.close(kill=True)


# ------------------------------------------------------------ worker memory


@dataclasses.dataclass(frozen=True)
class _ProcessorLeakProbe:
    """Runs ``runs`` simulations in whichever process executes it, then
    reports ``(pid, live Processor objects)`` there. It calls no
    ``gc.collect()``: pool workers run with the cyclic GC off, so a
    processor caught in a reference cycle would still be counted."""

    runs: int

    heavy: ClassVar[bool] = True  # two probes already make a parallel batch

    def execute(self, cache=None):
        from repro.core.engine import Processor

        for seed in range(self.runs):
            SimJob("M8", ("gzip", "twolf"), (0, 0), 200, seed=seed).execute()
        live = sum(isinstance(o, Processor) for o in gc.get_objects())
        return os.getpid(), live

    def trace_manifest(self):
        return ()


def test_pool_workers_free_every_finished_simulation():
    """Workers keep ``gc.disable()``; that is only sound while every
    finished simulation is freed by reference counting alone."""
    probes = [_ProcessorLeakProbe(runs=4)] * 2
    with BatchRunner(workers=2, trace_store=False) as runner:
        results = runner.run(probes)
    assert all(pid != os.getpid() for pid, _ in results)
    assert [live for _, live in results] == [0, 0]


@dataclasses.dataclass(frozen=True)
class _MemoProbe:
    """Runs a bundle over several workloads and then the profile pass of
    one benchmark in whichever process executes it, and reports ``(pid,
    memoized traces, warm snapshots, longest memoized trace)`` there.
    Profiling last, a window the pass left in the memo would still be
    there. Its trace manifest is the bundle's, so the runner prepacks
    the traces and warm snapshots, as it does for a sweep."""

    profiled: str
    bundle: ContinuationJob

    heavy: ClassVar[bool] = True

    def execute(self, cache=None):
        import repro.core.engine.warm as warm
        import repro.trace.stream as stream

        self.bundle.execute(cache)
        ProfileJob(self.profiled).execute()
        longest = max((t.length for t in stream._CACHE.values()), default=0)
        return os.getpid(), len(stream._CACHE), len(warm._WARM_CACHE), longest

    def trace_manifest(self):
        return self.bundle.trace_manifest()


def test_pool_workers_hold_bounded_memos():
    """A worker holds one workload at a time: after a bundle over three
    workloads at two trace lengths (24 traces, 6 warm sets) and a
    profile pass, each worker's trace and warm memos are within their
    bounds and hold no profile window."""
    import repro.core.engine.warm as warm
    import repro.trace.stream as stream

    runs = tuple(
        ContinuationRun("M8", get_workload(name).benchmarks,
                        (0,) * len(get_workload(name).benchmarks), 150,
                        trace_length=length)
        for length in (600, 700)
        for name in ("4W4", "6W1", "2W4")
    )
    probes = [_MemoProbe("mcf", ContinuationJob(runs)),
              _MemoProbe("gzip", ContinuationJob(runs[::-1]))]
    with BatchRunner(workers=2) as runner:
        results = runner.run(probes)
    assert all(pid != os.getpid() for pid, *_ in results)
    for _, traces, snapshots, longest in results:
        assert 0 < traces <= stream._CACHE_MAX
        assert 0 < snapshots <= warm._WARM_CACHE_MAX
        assert longest < PROFILE_LENGTH


# ------------------------------------------------------------- retry jitter


def test_backoff_jitter_deterministic_and_bounded():
    import random as _random

    policy = RetryPolicy(backoff_base=1.0, backoff_factor=1.0,
                         backoff_max=10.0, jitter=0.5)
    draws_a = [policy.backoff_for(1, rng=_random.Random(42))
               for _ in range(50)]
    # Same seed, same schedule: deterministic when seeded.
    draws_b = [policy.backoff_for(1, rng=_random.Random(42))
               for _ in range(50)]
    assert draws_a == draws_b
    # One evolving RNG spreads the delays within 1 +- jitter/2.
    rng = _random.Random(7)
    spread = [policy.backoff_for(1, rng=rng) for _ in range(200)]
    assert all(0.75 <= d <= 1.25 for d in spread)
    assert len(set(spread)) > 100  # actually spread, not a constant


def test_zero_jitter_keeps_exact_legacy_schedule():
    policy = RetryPolicy(backoff_base=0.1, backoff_factor=2.0,
                         backoff_max=1.0)
    assert policy.backoff_for(1) == pytest.approx(0.1)
    assert policy.backoff_for(2) == pytest.approx(0.2)
    assert policy.backoff_for(5) == pytest.approx(1.0)  # clamped


def test_run_report_counters_round_trip():
    a = RunReport(jobs=2, attempts=4, retries=2, timeouts=1,
                  wall_seconds=1.25, job_seconds=[0.5])
    b = RunReport(jobs=1, attempts=1, pool_respawns=1, inline_fallbacks=1,
                  cache_fallbacks=2, failures=1, job_seconds=[0.25])
    a.merge(b)
    assert (a.jobs, a.attempts, a.retries, a.timeouts, a.pool_respawns,
            a.inline_fallbacks, a.cache_fallbacks,
            a.failures) == (3, 5, 2, 1, 1, 1, 2, 1)
    assert a.eventful
    d = a.as_dict()
    assert (d["retries"], d["timeouts"], d["pool_respawns"],
            d["cache_fallbacks"]) == (2, 1, 1, 2)
    assert d["wall_seconds"] == 1.25 and d["job_seconds_total"] == 0.75
    assert a.describe() == (
        "3 jobs / 5 attempts in 1.2s — 2 retries, 1 timeouts, 1 pool "
        "respawns, 1 inline fallbacks, 2 cache fallbacks, 1 hard failures"
    )
    # A fault-free report is not eventful and still describes itself.
    quiet = RunReport(jobs=5, attempts=5)
    assert not quiet.eventful
    assert quiet.describe().startswith("5 jobs / 5 attempts in 0.0s — 0 retries")


#: RunReport fields that size a run; every other field counts an event.
_VOLUME = {"jobs", "batches", "attempts", "wall_seconds", "job_seconds"}


@pytest.mark.parametrize("f", dataclasses.fields(RunReport), ids=lambda f: f.name)
def test_run_report_is_derived_from_its_fields(f):
    """merge/as_dict/eventful cover every field with no hand-kept list."""
    if f.name == "job_seconds":
        a, b = RunReport(job_seconds=[0.5]), RunReport(job_seconds=[0.25])
        a.merge(b)
        assert a.job_seconds == [0.5, 0.25]
        d = a.as_dict()
        assert d["job_seconds"] == [0.5, 0.25]
        assert d["job_seconds_total"] == 0.75
        assert d["job_seconds_max"] == 0.5
    else:
        a, b = RunReport(**{f.name: 2}), RunReport(**{f.name: 3})
        a.merge(b)
        assert getattr(a, f.name) == 5
        assert a.as_dict()[f.name] == 5
    assert a.eventful == (f.name not in _VOLUME)


@pytest.mark.parametrize("f", dataclasses.fields(RunReport), ids=lambda f: f.name)
def test_events_only_keeps_events_and_restores_volume(f):
    """The runner's own prep work counts its recovery events but no jobs,
    batches, attempts or timings: inside ``events_only`` every field
    moves, and on exit only the event counters keep what they gained."""
    before = RunReport(jobs=4, batches=1, attempts=5, retries=1,
                       wall_seconds=2.0, job_seconds=[0.5])
    report = dataclasses.replace(before, job_seconds=list(before.job_seconds))
    with report.events_only() as inner:
        assert inner is report
        if f.name == "job_seconds":
            report.job_seconds.append(0.25)
        else:
            setattr(report, f.name, getattr(report, f.name) + 3)
    if f.name in _VOLUME:
        assert report == before
    else:
        assert getattr(report, f.name) == getattr(before, f.name) + 3
        assert report.job_seconds == [0.5] and report.jobs == 4
