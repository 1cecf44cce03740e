"""Distributed chaos suite: real ``repro worker`` processes under the
deterministic fault harness.

Every scenario runs a genuine fleet — separate Python processes serving
the queue over the filesystem — and asserts the acceptance contract:
results byte-identical to local execution, zero failed jobs, and the
RunReport showing the recovery events the injected plan forced
(worker death → lease reclamation; a hang past the straggler deadline →
speculative re-dispatch; a stale lease → takeover with a settled
double-publish race; a whole fleet dying → local fallback).

``make chaos-remote`` runs it with the other distributed suites.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.runner import BatchRunner, JobQueue, SimJob
from repro.runner.cache import sim_result_payload


def _canonical_bytes(results):
    """A canonical serialization for byte-identity assertions (pickle
    streams vary with object-graph sharing even for equal values)."""
    return json.dumps(
        [sim_result_payload(r) for r in results], sort_keys=True
    ).encode()

SRC = str(Path(__file__).resolve().parents[2] / "src")

#: Cheap jobs; unique seeds make every job's repr uniquely matchable.
JOBS = tuple(
    SimJob("M8", ("gzip", "twolf"), (0, 0), 400, seed=200 + i)
    for i in range(12)
)

#: Worker lease lifetime: short enough that reclamation happens fast,
#: long enough that the 3x-per-ttl renewal cadence is easy to sustain.
WORKER_TTL = 0.8


@pytest.fixture(scope="module")
def reference_results():
    """Fault-free local ground truth for the full job set."""
    with BatchRunner(workers=1, trace_store=False) as runner:
        return runner.run(JOBS)


@pytest.fixture()
def dist_env(monkeypatch, tmp_path):
    """Front-end knobs sized for the test box: patient grace (worker
    processes take ~1s to boot), short-ish liveness window, eager
    speculation."""
    monkeypatch.setenv("REPRO_DIST_GRACE", "30")
    monkeypatch.setenv("REPRO_LEASE_TTL", "2.0")
    monkeypatch.setenv("REPRO_SPEC_QUANTILE", "0.25")
    monkeypatch.setenv("REPRO_SPEC_FACTOR", "1.0")
    monkeypatch.setenv("REPRO_FAULT_STATE", str(tmp_path / "fault-state"))
    return tmp_path


def _spawn_workers(queue_dir, count, plan=None, state=None, extra_env=None):
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("REPRO_FAULT_PLAN", None)
    if plan is not None:
        env["REPRO_FAULT_PLAN"] = json.dumps(plan)
        env["REPRO_FAULT_STATE"] = str(state)
    if extra_env:
        env.update(extra_env)
    procs = []
    for i in range(count):
        procs.append(subprocess.Popen(
            [sys.executable, "-m", "repro", "worker",
             "--queue", str(queue_dir),
             "--worker-id", f"cw{i}",
             "--lease-ttl", str(WORKER_TTL)],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        ))
    return procs


def _wait_for_fleet(queue_dir, count, timeout=30.0):
    q = JobQueue(queue_dir)
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if len(q.live_workers(ttl=5.0)) >= count:
            return
        time.sleep(0.05)
    raise AssertionError(f"fleet of {count} never registered")


def _stop_fleet(queue_dir, procs, timeout=20.0):
    JobQueue(queue_dir).request_stop()
    deadline = time.monotonic() + timeout
    for p in procs:
        remaining = max(0.5, deadline - time.monotonic())
        try:
            p.wait(timeout=remaining)
        except subprocess.TimeoutExpired:
            p.kill()
            p.wait(timeout=10)


# -- scenarios ---------------------------------------------------------------


def test_clean_two_worker_fleet_is_bit_identical(dist_env,
                                                 reference_results):
    qdir = dist_env / "q"
    with BatchRunner(workers=2, queue_dir=qdir) as runner:
        procs = _spawn_workers(qdir, 2)
        try:
            _wait_for_fleet(qdir, 2)
            results = runner.run(list(JOBS))
            report = runner.report
        finally:
            _stop_fleet(qdir, procs)
    assert results == reference_results
    assert _canonical_bytes(results) == _canonical_bytes(reference_results)
    assert report.enqueued == len(JOBS)
    assert report.failures == 0
    assert report.local_fallbacks == 0
    assert {p.returncode for p in procs} == {0}


def test_worker_death_reclaims_lease(dist_env, reference_results):
    qdir = dist_env / "q"
    plan = [{"match": "", "op": "die", "executions": [1],
             "scope": "worker", "exit_code": 17}]
    with BatchRunner(workers=2, queue_dir=qdir) as runner:
        procs = _spawn_workers(qdir, 2, plan=plan,
                               state=dist_env / "fault-state")
        try:
            _wait_for_fleet(qdir, 2)
            results = runner.run(list(JOBS))
            report = runner.report
        finally:
            _stop_fleet(qdir, procs)
    assert results == reference_results
    assert _canonical_bytes(results) == _canonical_bytes(reference_results)
    assert report.lease_reclaims >= 1
    assert report.failures == 0
    assert report.local_fallbacks == 0
    assert 17 in {p.returncode for p in procs}  # exactly the injected death


def test_hang_past_deadline_is_speculated_around(dist_env,
                                                 reference_results):
    qdir = dist_env / "q"
    # The hang fires late (its 6th worker-side execution) so the
    # completion-time distribution exists and speculation is armed; the
    # renewer keeps the lease alive throughout, so this is precisely the
    # straggler case, not the dead-worker case.
    plan = [{"match": "", "op": "hang", "executions": [6],
             "scope": "worker", "hang_seconds": 6.0}]
    with BatchRunner(workers=2, queue_dir=qdir) as runner:
        procs = _spawn_workers(qdir, 2, plan=plan,
                               state=dist_env / "fault-state")
        try:
            _wait_for_fleet(qdir, 2)
            results = runner.run(list(JOBS))
            report = runner.report
        finally:
            _stop_fleet(qdir, procs)
    assert results == reference_results
    assert _canonical_bytes(results) == _canonical_bytes(reference_results)
    assert report.speculations >= 1
    assert report.failures == 0
    assert report.local_fallbacks == 0


def test_stale_lease_takeover_settles_double_publish(dist_env,
                                                     reference_results):
    qdir = dist_env / "q"
    # Renewal freezes and the worker stalls well past its ttl before
    # executing anyway: someone reclaims and re-runs the task, then two
    # executions race to publish — first-wins must settle it with one
    # result and no failure.
    plan = [{"match": "", "op": "stale-lease", "executions": [2],
             "scope": "worker", "hang_seconds": 2.5}]
    with BatchRunner(workers=2, queue_dir=qdir) as runner:
        procs = _spawn_workers(qdir, 2, plan=plan,
                               state=dist_env / "fault-state")
        try:
            _wait_for_fleet(qdir, 2)
            results = runner.run(list(JOBS))
            report = runner.report
        finally:
            _stop_fleet(qdir, procs)
    assert results == reference_results
    assert _canonical_bytes(results) == _canonical_bytes(reference_results)
    assert report.lease_reclaims >= 1
    assert report.failures == 0
    assert report.local_fallbacks == 0


def test_acceptance_sweep_under_combined_chaos(dist_env,
                                               reference_results):
    """The PR's headline scenario: one worker dies, one execution goes
    stale-leased, one hangs past the straggler deadline — all in one
    sweep, which must still be byte-identical with zero failed jobs and
    an eventful report."""
    qdir = dist_env / "q"
    plan = [
        {"match": "", "op": "die", "executions": [1],
         "scope": "worker", "exit_code": 17},
        {"match": "", "op": "stale-lease", "executions": [2],
         "scope": "worker", "hang_seconds": 2.0},
        {"match": "", "op": "hang", "executions": [6],
         "scope": "worker", "hang_seconds": 5.0},
    ]
    with BatchRunner(workers=2, queue_dir=qdir) as runner:
        procs = _spawn_workers(qdir, 2, plan=plan,
                               state=dist_env / "fault-state")
        try:
            _wait_for_fleet(qdir, 2)
            results = runner.run(list(JOBS))
            report = runner.report
        finally:
            _stop_fleet(qdir, procs)
    assert results == reference_results
    assert _canonical_bytes(results) == _canonical_bytes(reference_results)
    assert report.lease_reclaims >= 1
    assert report.speculations >= 1
    assert report.failures == 0
    assert report.enqueued == len(JOBS)
    assert report.eventful
    assert "lease reclaims" in report.describe()


def test_whole_fleet_dying_degrades_to_local(dist_env, monkeypatch,
                                             reference_results):
    """Both workers die on their first executions: the fleet goes dark
    and the front end drains the remainder through the local supervised
    pool — the sweep still finishes, byte-identical."""
    monkeypatch.setenv("REPRO_DIST_GRACE", "2.0")
    qdir = dist_env / "q"
    plan = [{"match": "", "op": "die", "executions": [1, 2],
             "scope": "worker", "exit_code": 17}]
    with BatchRunner(workers=2, queue_dir=qdir) as runner:
        procs = _spawn_workers(qdir, 2, plan=plan,
                               state=dist_env / "fault-state")
        try:
            _wait_for_fleet(qdir, 2)
            results = runner.run(list(JOBS))
            report = runner.report
        finally:
            _stop_fleet(qdir, procs)
    assert results == reference_results
    assert _canonical_bytes(results) == _canonical_bytes(reference_results)
    assert report.local_fallbacks == 1
    assert report.failures == 0
    assert [p.returncode for p in procs] == [17, 17]
