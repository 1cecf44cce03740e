"""PR 7 snapshot (``BENCH_0007.json``): distributed sweep execution.

The PR's hard guarantees are behavioural — results byte-identical to
local execution through worker death, stale leases, stragglers and
whole-fleet loss, pinned by ``tests/runner/test_distributed_chaos.py``
— so the number that matters here is the *cost of distribution when
nothing goes wrong*: the lease-queue round trip (enqueue, claim,
heartbeat, publish, harvest over the filesystem) against a real
2-process ``repro worker`` fleet versus the same batch through the
local supervised pool (``distributed.overhead``, best-of).

The snapshot also records a **chaos acceptance run** — the ISSUE's
combined worker-death + stale-lease + straggler-hang sweep with its
RunReport (>=1 lease reclamation, >=1 speculative re-dispatch, 0 failed
jobs) — plus the standard **perf-gate reference** section (fixed
``GATE_SCALE``, same shape and methodology as BENCH_0006's;
``benchmarks/perf_gate.py`` treats this snapshot as the fresh gate
source). Sections written by other benches are preserved — merge,
never clobber.
"""

import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

from test_simulator_throughput import (
    GATE_SCALE,
    GATE_SINGLE_TARGET,
    GATE_WORKERS,
    SWEEP_CONFIGS,
    SWEEP_SCALE,
    SWEEP_WORKLOADS,
    seed_baseline_cycles_per_second,
)

from repro.core.config import get_config
from repro.core.engine import Processor, clear_warm_cache
from repro.runner import BatchRunner, JobQueue, SimJob
from repro.trace.stream import clear_trace_cache, trace_for

_REPO_ROOT = Path(__file__).resolve().parent.parent
_SRC = str(_REPO_ROOT / "src")
DIST_SNAPSHOT = _REPO_ROOT / "BENCH_0007.json"

#: The A/B batch: a dozen light jobs across the standard configurations
#: (seeds vary the trace draw so no in-process memo collapses the work).
AB_JOBS = tuple(
    SimJob(cfg, ("gzip", "twolf", "bzip2", "mcf"), mapping, 2000, seed=s)
    for s, (cfg, mapping) in enumerate(
        [("M8", (0, 0, 0, 0)), ("2M4+2M2", (0, 2, 1, 3))] * 6
    )
)
AB_FLEET = 2
AB_REPEATS = 3

#: The chaos scenario jobs (distinct seeds; same shape as the
#: ``make chaos-remote`` acceptance sweep).
CHAOS_JOBS = tuple(
    SimJob("M8", ("gzip", "twolf"), (0, 0), 400, seed=900 + i)
    for i in range(12)
)

#: Worker-side lease lifetime for the spawned fleets (renewed at a third
#: of this by each worker's heartbeat thread).
WORKER_TTL = 0.8


def _spawn_workers(queue_dir, count, plan=None, state=None):
    env = dict(os.environ, PYTHONPATH=_SRC)
    env.pop("REPRO_FAULT_PLAN", None)
    if plan is not None:
        env["REPRO_FAULT_PLAN"] = json.dumps(plan)
        env["REPRO_FAULT_STATE"] = str(state)
    return [
        subprocess.Popen(
            [sys.executable, "-m", "repro", "worker",
             "--queue", str(queue_dir),
             "--worker-id", f"bw{i}",
             "--lease-ttl", str(WORKER_TTL)],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        for i in range(count)
    ]


def _wait_for_fleet(queue_dir, count, timeout=60.0):
    q = JobQueue(queue_dir)
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if len(q.live_workers(ttl=5.0)) >= count:
            return
        time.sleep(0.05)
    raise AssertionError(f"fleet of {count} never registered")


def _stop_fleet(queue_dir, procs, timeout=30.0):
    JobQueue(queue_dir).request_stop()
    deadline = time.monotonic() + timeout
    for p in procs:
        remaining = max(0.5, deadline - time.monotonic())
        try:
            p.wait(timeout=remaining)
        except subprocess.TimeoutExpired:
            p.kill()
            p.wait(timeout=10)


def test_distributed_overhead(tmp_path, monkeypatch):
    """No-fault distribution overhead (2-worker fleet vs the local
    supervised pool on an identical batch), the chaos acceptance run,
    and the perf-gate reference."""
    from repro.experiments.performance import (
        clear_result_cache,
        run_performance_experiment,
    )
    from repro.experiments.scale import ExperimentScale
    from repro.runner.resilience import RunReport

    monkeypatch.delenv("REPRO_RESULT_CACHE", raising=False)
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)
    monkeypatch.delenv("REPRO_DIST_QUEUE", raising=False)
    monkeypatch.setenv("REPRO_DIST_GRACE", "30")
    monkeypatch.setenv("REPRO_LEASE_TTL", "2.0")

    # --- local leg: the supervised pool (the path distribution wraps) ----
    local_times = []
    reference = None
    for _ in range(AB_REPEATS):
        with BatchRunner(workers=AB_FLEET) as runner:
            t0 = time.perf_counter()
            results = runner.run(AB_JOBS)
            local_times.append(time.perf_counter() - t0)
        if reference is None:
            reference = results
        assert results == reference  # bit-identical, always

    # --- distributed leg: real worker processes over the lease queue -----
    qdir = tmp_path / "ab-queue"
    dist_times = []
    with BatchRunner(workers=AB_FLEET, queue_dir=qdir) as runner:
        procs = _spawn_workers(qdir, AB_FLEET)
        try:
            _wait_for_fleet(qdir, AB_FLEET)
            for _ in range(AB_REPEATS):
                t0 = time.perf_counter()
                results = runner.run(AB_JOBS)
                dist_times.append(time.perf_counter() - t0)
                assert results == reference  # bit-identical, always
            ab_report: RunReport = runner.report
        finally:
            _stop_fleet(qdir, procs)
    assert ab_report.enqueued == AB_REPEATS * len(AB_JOBS)
    assert ab_report.failures == 0 and ab_report.local_fallbacks == 0
    local_best, dist_best = min(local_times), min(dist_times)
    overhead_pct = round(100.0 * (dist_best / local_best - 1.0), 1)

    # --- chaos acceptance run (death + stale lease + straggler hang) -----
    with BatchRunner(workers=1, trace_store=False) as ref_runner:
        chaos_reference = ref_runner.run(CHAOS_JOBS)
    monkeypatch.setenv("REPRO_SPEC_QUANTILE", "0.25")
    monkeypatch.setenv("REPRO_SPEC_FACTOR", "1.0")
    plan = [
        {"match": "", "op": "die", "executions": [1],
         "scope": "worker", "exit_code": 17},
        {"match": "", "op": "stale-lease", "executions": [2],
         "scope": "worker", "hang_seconds": 2.0},
        {"match": "", "op": "hang", "executions": [6],
         "scope": "worker", "hang_seconds": 5.0},
    ]
    chaos_qdir = tmp_path / "chaos-queue"
    with BatchRunner(workers=2, queue_dir=chaos_qdir) as chaos_runner:
        procs = _spawn_workers(chaos_qdir, 2, plan=plan,
                               state=tmp_path / "fault-state")
        try:
            _wait_for_fleet(chaos_qdir, 2)
            chaos_results = chaos_runner.run(list(CHAOS_JOBS))
            chaos_report: RunReport = chaos_runner.report
        finally:
            _stop_fleet(chaos_qdir, procs)
    assert chaos_results == chaos_reference
    assert chaos_report.lease_reclaims >= 1
    assert chaos_report.speculations >= 1
    assert chaos_report.failures == 0

    # --- perf-gate reference (always, fixed scale) -----------------------
    def single_sim(config_name, mapping, commit_target, rounds=5):
        cfg = get_config(config_name)
        traces = [trace_for(b, 6000) for b in ("gzip", "twolf", "bzip2", "mcf")]
        best = None
        cycles = 0
        for _ in range(rounds):
            proc = Processor(cfg, traces, mapping, commit_target=commit_target)
            proc.warm()
            t0 = time.perf_counter()
            proc.run()
            dt = time.perf_counter() - t0
            cycles = proc.cycle
            if best is None or dt < best:
                best = dt
        return round(cycles / best)

    gate_scale = ExperimentScale(**SWEEP_SCALE).scaled(GATE_SCALE)
    gate_times = []
    for _ in range(2):
        clear_result_cache()
        clear_trace_cache()
        clear_warm_cache()
        runner = BatchRunner(workers=GATE_WORKERS,
                             trace_store=tmp_path / "gate-store")
        t0 = time.perf_counter()
        run_performance_experiment(SWEEP_CONFIGS, SWEEP_WORKLOADS, gate_scale,
                                   runner=runner, screening=True)
        gate_times.append(time.perf_counter() - t0)
        assert not runner.report.eventful  # a healthy gate run needs no rescue
        runner.close()
    gate_cps = {
        "2M4+2M2": single_sim("2M4+2M2", (0, 2, 1, 3), GATE_SINGLE_TARGET),
        "M8": single_sim("M8", (0, 0, 0, 0), GATE_SINGLE_TARGET),
    }

    snapshot = {
        "benchmark": "test_distributed_overhead",
        "seed_cycles_per_second": seed_baseline_cycles_per_second(),
        "perf_gate": {
            "scale": GATE_SCALE,
            "workers": GATE_WORKERS,
            # Machine class of the recording host: the gate only enforces
            # against a baseline recorded on the same class (a different
            # class downgrades the run to record-only).
            "machine": (
                f"{platform.system()}-{platform.machine()}"
                f"-cpu{os.cpu_count()}"
            ),
            "single_sim_commit_target": GATE_SINGLE_TARGET,
            "cycles_per_second": gate_cps,
            "sweep_seconds_best": round(min(gate_times), 3),
            "sweep_seconds_all": [round(t, 3) for t in gate_times],
            "note": (
                "fixed-scale same-machine reference for "
                "benchmarks/perf_gate.py; the CI lane fails on >25% "
                "regression of cycles/sec or sweep wall clock vs the "
                "latest committed BENCH_000N baseline — the sweep runs "
                "the local supervised path (no REPRO_DIST_QUEUE), so "
                "the gate keeps measuring the engine, not the fleet"
            ),
        },
        "distributed": {
            "overhead": {
                "jobs": len(AB_JOBS),
                "fleet": AB_FLEET,
                "commit_target": 2000,
                "repeats": AB_REPEATS,
                "distributed_seconds_best": round(dist_best, 3),
                "distributed_seconds_all": [round(t, 3) for t in dist_times],
                "local_seconds_best": round(local_best, 3),
                "local_seconds_all": [round(t, 3) for t in local_times],
                "overhead_pct_best": overhead_pct,
                "note": (
                    "lease-queue round trip (enqueue, O_EXCL claim, "
                    "heartbeat renewal, first-wins publish, poll-harvest "
                    "over the filesystem) against a real 2-process "
                    "`repro worker` fleet vs the same no-fault batch "
                    "through the local supervised pool; results asserted "
                    "bit-identical on every repeat"
                ),
            },
            "chaos_acceptance": {
                "scenario": (
                    "12 jobs, 2-worker fleet: one injected worker death "
                    "(os._exit 17), one stale lease (frozen renewal + "
                    "2s stall past the 0.8s ttl), one 5s straggler hang "
                    "past the speculation deadline"
                ),
                "bit_identical_to_fault_free": True,
                "report": chaos_report.as_dict(),
            },
        },
    }

    # Merge, never clobber: other benches may extend this snapshot later.
    merged = {}
    if DIST_SNAPSHOT.exists():
        try:
            merged = json.loads(DIST_SNAPSHOT.read_text())
        except ValueError:
            merged = {}
    merged.update(snapshot)
    DIST_SNAPSHOT.write_text(json.dumps(merged, indent=2) + "\n")
    print(f"\n[distributed] fleet {dist_best:.2f} s vs local "
          f"{local_best:.2f} s ({overhead_pct:+.1f}%); chaos run "
          f"bit-identical with {chaos_report.describe()} "
          f"[saved to {DIST_SNAPSHOT}]")
    print(f"\n[perf-gate ref] sweep best {min(gate_times):.2f} s @scale "
          f"{GATE_SCALE}, single-sim {gate_cps} [saved to {DIST_SNAPSHOT}]")
    # Catastrophic-regression tripwires (machine-portable): filesystem
    # coordination must never cost multiples of the pool it wraps (a
    # small absolute allowance covers the fixed per-batch queue setup on
    # slow CI disks), and the gate-scale engine floors still apply.
    assert dist_best < 2.0 * local_best + 5.0, (dist_best, local_best)
    seed_cps = merged["seed_cycles_per_second"]
    assert gate_cps["2M4+2M2"] > 0.2 * seed_cps, (gate_cps, seed_cps)
    assert gate_cps["M8"] > 0.2 * seed_cps, (gate_cps, seed_cps)
