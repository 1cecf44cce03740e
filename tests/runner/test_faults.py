"""Fault-injection chaos suite: every recovery path of the supervised
dispatch exercised with a real 2-worker process pool — injected worker
raises, deaths (``os._exit``), hangs past the job timeout, and corrupted
cache entries — asserting bit-identical ordered results throughout."""

import json

import pytest

from repro.runner import BatchRunner, ResultCache, RetryPolicy, SimJob
from repro.runner.faults import (
    FaultRule,
    InjectedFault,
    load_fault_plan,
    maybe_inject_fault,
)

#: Four cheap jobs; seeds make each job's repr uniquely matchable.
JOBS = tuple(
    SimJob("M8", ("gzip", "twolf"), (0, 0), 400, seed=100 + i)
    for i in range(4)
)

#: Generous vs the ~0.1s a job really takes, tiny vs an injected hang.
FAST_POLICY = RetryPolicy(
    max_attempts=3, backoff_base=0.05, backoff_max=0.2, timeout=20.0
)


@pytest.fixture()
def fault_env(monkeypatch, tmp_path):
    """Arm the harness: returns a setter the test calls with its rules."""
    state = tmp_path / "fault-state"
    monkeypatch.setenv("REPRO_FAULT_STATE", str(state))

    def arm(rules):
        monkeypatch.setenv("REPRO_FAULT_PLAN", json.dumps(rules))

    return arm


@pytest.fixture(scope="module")
def reference_results():
    """The fault-free ground truth every chaos run must reproduce."""
    with BatchRunner(workers=1, trace_store=False) as runner:
        return runner.run(JOBS)


# ----------------------------------------------------------------- plan layer


def test_load_fault_plan_inline_and_file(tmp_path, monkeypatch):
    rules = [{"match": "mcf", "op": "raise", "executions": [2]}]
    assert load_fault_plan(json.dumps(rules)) == [
        FaultRule(match="mcf", op="raise", executions=(2,))
    ]
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(json.dumps(rules))
    assert load_fault_plan(f"@{plan_file}") == load_fault_plan(json.dumps(rules))
    monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)
    assert load_fault_plan() == []
    with pytest.raises(ValueError):
        FaultRule(match="", op="explode")


def test_plan_without_state_dir_fails_loudly(monkeypatch):
    monkeypatch.setenv(
        "REPRO_FAULT_PLAN", json.dumps([{"match": "", "op": "raise"}])
    )
    monkeypatch.delenv("REPRO_FAULT_STATE", raising=False)
    with pytest.raises(RuntimeError, match="REPRO_FAULT_STATE"):
        maybe_inject_fault(JOBS[0])


def test_ordinals_fire_exactly_once(monkeypatch, tmp_path):
    """The Nth matching execution fires, every other one passes."""
    monkeypatch.setenv("REPRO_FAULT_STATE", str(tmp_path / "state"))
    monkeypatch.setenv(
        "REPRO_FAULT_PLAN",
        json.dumps([{"match": "gzip", "op": "raise", "executions": [2]}]),
    )
    maybe_inject_fault(JOBS[0])  # execution 1: passes
    with pytest.raises(InjectedFault):
        maybe_inject_fault(JOBS[0])  # execution 2: fires
    maybe_inject_fault(JOBS[0])  # execution 3: passes again


# ------------------------------------------------------------ recovery paths


def _chaos_run(policy=FAST_POLICY, cache_dir=None, **runner_kw):
    with BatchRunner(
        workers=2, trace_store=False, policy=policy, cache_dir=cache_dir,
        **runner_kw,
    ) as runner:
        results = runner.run(JOBS)
        return results, runner.report


def test_transient_raise_succeeds_on_retry(fault_env, reference_results):
    arm = fault_env
    arm([{"match": "seed=101", "op": "raise", "executions": [1]}])
    results, report = _chaos_run()
    assert results == reference_results
    assert report.retries >= 1
    assert report.failures == 0


def test_worker_death_respawns_pool(fault_env, reference_results):
    arm = fault_env
    arm([{"match": "seed=102", "op": "die", "executions": [1]}])
    results, report = _chaos_run()
    assert results == reference_results
    assert report.pool_respawns >= 1
    assert report.failures == 0


def test_hang_times_out_and_retries(fault_env, reference_results):
    arm = fault_env
    arm([
        {"match": "seed=103", "op": "hang", "executions": [1],
         "hang_seconds": 60.0},
    ])
    policy = RetryPolicy(
        max_attempts=3, backoff_base=0.05, backoff_max=0.2, timeout=2.0
    )
    results, report = _chaos_run(policy=policy)
    assert results == reference_results
    assert report.timeouts >= 1
    # Reclaiming the hung worker requires killing + respawning the pool.
    assert report.pool_respawns >= 1
    assert report.failures == 0


def test_repeated_pool_breaks_degrade_to_inline(fault_env, reference_results):
    """When the pool keeps dying past its respawn budget, the batch
    degrades to inline execution instead of failing."""
    arm = fault_env
    # Three death ordinals: one pool break can consume at most two of
    # them (one per worker), so the respawned pool is guaranteed to die
    # again and blow the respawn budget whatever the scheduling.
    arm([{"match": "", "op": "die", "executions": [1, 2, 3]}])
    policy = RetryPolicy(
        max_attempts=3, backoff_base=0.05, backoff_max=0.2, timeout=20.0,
        max_pool_respawns=1,
    )
    results, report = _chaos_run(policy=policy)
    assert results == reference_results
    assert report.inline_fallbacks >= 1
    assert report.failures == 0


def test_permanent_fault_exhausts_attempts(fault_env):
    from repro.runner.resilience import JobError

    arm = fault_env
    arm([{"match": "seed=100", "op": "raise", "executions": [1, 2, 3, 4, 5]}])
    with BatchRunner(workers=2, trace_store=False, policy=FAST_POLICY) as r:
        with pytest.raises(JobError):
            r.run(JOBS)
    assert r.report.retries >= FAST_POLICY.max_attempts - 1
    assert r.report.failures == 1


def test_corrupted_cache_entry_recomputes_in_pool(tmp_path, reference_results):
    from repro.runner.faults import corrupt_cache_entry

    cache_dir = tmp_path / "cache"
    cache = ResultCache(cache_dir)
    for job, result in zip(JOBS, reference_results):
        cache.put(job, result)
    corrupt_cache_entry(cache, JOBS[2], mode="truncate")
    results, report = _chaos_run(cache_dir=cache_dir)
    assert results == reference_results
    assert report.cache_fallbacks >= 1
    # The recompute repaired the damaged entry in place.
    assert ResultCache(cache_dir).get(JOBS[2]) == reference_results[2]


def test_repeated_hangs_degrade_to_inline(fault_env, reference_results):
    """Deadline-triggered pool kills count against the respawn budget,
    so an environment that hangs repeatedly degrades to inline execution
    exactly like one that crashes repeatedly."""
    arm = fault_env
    arm([
        {"match": "", "op": "hang", "executions": [1, 2, 3, 4, 5, 6, 7, 8],
         "hang_seconds": 60.0},
    ])
    policy = RetryPolicy(
        max_attempts=5, backoff_base=0.05, backoff_max=0.2, timeout=1.5,
        max_pool_respawns=0,
    )
    results, report = _chaos_run(policy=policy)
    assert results == reference_results
    assert report.timeouts >= 1
    # Budget 0: the first hang-induced kill already degrades the batch.
    assert report.inline_fallbacks >= 1
    assert report.failures == 0


def test_queued_jobs_do_not_burn_their_timeout_budget(fault_env):
    """Per-job deadlines start when the job starts running: with many
    more jobs than workers and per-job runtimes near the budget, queue
    wait must not surface as spurious timeouts (which would kill the
    pool under the feet of healthy jobs)."""
    arm = fault_env
    # Every execution sleeps 0.7s inside the worker: 6 jobs on 2 workers
    # means the batch tail waits ~2s for a slot — spurious timeouts if
    # the 2s budget started at enqueue time instead of start time.
    arm([
        {"match": "", "op": "hang", "executions": list(range(1, 13)),
         "hang_seconds": 0.7},
    ])
    jobs = [
        SimJob("M8", ("gzip", "twolf"), (0, 0), 400, seed=200 + i)
        for i in range(6)
    ]
    with BatchRunner(workers=1, trace_store=False) as runner:
        expected = runner.run(jobs)
    policy = RetryPolicy(
        max_attempts=3, backoff_base=0.05, backoff_max=0.2, timeout=2.0
    )
    with BatchRunner(workers=2, trace_store=False, policy=policy) as runner:
        results = runner.run(jobs)
        report = runner.report
    assert results == expected
    assert report.timeouts == 0
    assert report.pool_respawns == 0
    assert report.failures == 0


def test_fault_plan_parsed_once_per_env_value(monkeypatch, tmp_path):
    """maybe_inject_fault sits on the production worker entry point: the
    plan must be parsed once per process per env value, not per job."""
    import repro.runner.faults as faults

    monkeypatch.setattr(faults, "_plan_cache", (None, ()))
    calls = {"n": 0}
    real = faults.load_fault_plan

    def counting(env=None):
        calls["n"] += 1
        return real(env)

    monkeypatch.setattr(faults, "load_fault_plan", counting)
    monkeypatch.setenv("REPRO_FAULT_STATE", str(tmp_path / "state"))
    monkeypatch.setenv(
        "REPRO_FAULT_PLAN",
        json.dumps([{"match": "no-such-job", "op": "raise"}]),
    )
    faults.maybe_inject_fault(JOBS[0])
    faults.maybe_inject_fault(JOBS[0])
    faults.maybe_inject_fault(JOBS[1])
    assert calls["n"] == 1
    # A changed plan value is picked up (reparsed exactly once).
    monkeypatch.setenv(
        "REPRO_FAULT_PLAN",
        json.dumps([{"match": "still-no-such-job", "op": "raise"}]),
    )
    faults.maybe_inject_fault(JOBS[0])
    faults.maybe_inject_fault(JOBS[0])
    assert calls["n"] == 2


# ------------------------------------------------------- acceptance scenario


def test_chaos_sweep_is_bit_identical_to_fault_free(
    fault_env, tmp_path, reference_results
):
    """The ISSUE's acceptance scenario: one worker death + one hang + one
    corrupted cache entry in a single sweep, which must complete with
    results bit-identical to the fault-free run while the RunReport
    records >=1 pool respawn, >=1 timeout retry and >=1 cache fallback."""
    from repro.runner.faults import corrupt_cache_entry

    cache_dir = tmp_path / "cache"
    cache = ResultCache(cache_dir)
    # One job has a (corrupted) cache entry, one a healthy one, and the
    # two uncached jobs carry the injected faults.
    cache.put(JOBS[0], reference_results[0])
    corrupt_cache_entry(cache, JOBS[0], mode="garbage")
    cache.put(JOBS[3], reference_results[3])
    arm = fault_env
    # The hang gets two ordinals: its first execution may be aborted by
    # the death-induced pool break before the deadline fires, and the
    # resubmission must still hang for the timeout path to trigger.
    arm([
        {"match": "seed=101", "op": "die", "executions": [1]},
        {"match": "seed=102", "op": "hang", "executions": [1, 2],
         "hang_seconds": 60.0},
    ])
    policy = RetryPolicy(
        max_attempts=3, backoff_base=0.05, backoff_max=0.2, timeout=3.0
    )
    results, report = _chaos_run(policy=policy, cache_dir=cache_dir)
    assert results == reference_results
    assert report.pool_respawns >= 1
    assert report.timeouts >= 1
    assert report.retries >= 1
    assert report.cache_fallbacks >= 1
    assert report.failures == 0
    # The sweep repaired every cache entry: a fresh fault-free pass over
    # the same cache is all hits serving identical payloads.
    fresh = ResultCache(cache_dir)
    assert [fresh.get(j) for j in JOBS] == list(reference_results)
    assert fresh.hits == len(JOBS) and fresh.corrupt_fallbacks == 0


# ------------------------------------------------------------ rule validation


def test_fault_rule_validation():
    with pytest.raises(ValueError, match="fault op"):
        FaultRule(match="", op="segfault")
    with pytest.raises(ValueError, match="fault op"):
        FaultRule.from_dict({"op": "stale_lease"})


def test_misspelt_rule_key_is_rejected_by_name():
    """A misspelt key such as ``execution`` must not fall back to the
    default ordinal and fire on execution 1 instead of 2."""
    typo = [{"match": "mcf", "op": "raise", "execution": [2]}]
    with pytest.raises(ValueError, match="'execution'"):
        load_fault_plan(json.dumps(typo))


@pytest.mark.parametrize("rule", [
    {"op": "raise", "executions": ["first"]},
    {"op": "hang", "hang_seconds": "forever"},
    {"op": "die", "exit_code": "seventeen"},
], ids=["executions", "hang_seconds", "exit_code"])
def test_garbled_rule_value_fails_at_load(rule):
    """A value of the wrong kind stops the plan when it is parsed, not
    mid-sweep inside a worker."""
    with pytest.raises(ValueError):
        load_fault_plan(json.dumps([dict(rule, match="")]))


def test_stale_scope_key_fails_loudly_in_the_pool(monkeypatch, tmp_path):
    """A rule with a ``scope`` key (not a rule field) must not fire in a
    pool worker: the plan raises before any ordinal is claimed."""
    state = tmp_path / "state"
    monkeypatch.setenv("REPRO_FAULT_STATE", str(state))
    monkeypatch.setenv(
        "REPRO_FAULT_PLAN",
        json.dumps([{"match": "", "op": "raise", "scope": "worker"}]),
    )
    with pytest.raises(ValueError, match="'scope'"):
        maybe_inject_fault(JOBS[0])
    assert not state.exists()  # no ordinal consumed
