"""Fault-tolerance snapshot (``BENCH_0006.json``): supervised dispatch.

The hard guarantees are behavioural — bit-identical results through
retry/respawn/degradation, pinned by ``tests/runner/test_faults.py`` —
so the snapshot records a **chaos acceptance run** (an injected worker
death + hang + corrupted cache entry sweep) with its RunReport, plus the
standard **perf-gate reference** section (fixed ``GATE_SCALE``, same
shape as BENCH_0005's; ``benchmarks/perf_gate.py`` treats the newest
snapshot carrying one as its baseline). Sections written by other
benches are preserved — merge, never clobber.
"""

import json
import os
import platform
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
from repro.runner import BatchRunner, RetryPolicy, SimJob
from repro.trace.stream import clear_trace_cache, trace_for

_REPO_ROOT = Path(__file__).resolve().parent.parent
FAULT_SNAPSHOT = _REPO_ROOT / "BENCH_0006.json"

#: The chaos scenario jobs (distinct seeds make per-job fault matching
#: deterministic; see tests/runner/test_faults.py for the same pattern).
CHAOS_JOBS = tuple(
    SimJob("M8", ("gzip", "twolf"), (0, 0), 800, seed=900 + i)
    for i in range(4)
)


def test_fault_tolerance(tmp_path, monkeypatch):
    """The chaos acceptance run and the perf-gate reference."""
    from repro.experiments.performance import (
        clear_result_cache,
        run_performance_experiment,
    )
    from repro.experiments.scale import ExperimentScale
    from repro.runner.faults import corrupt_cache_entry
    from repro.runner.resilience import RunReport

    monkeypatch.delenv("REPRO_RESULT_CACHE", raising=False)
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)

    # --- chaos acceptance run (death + hang + corrupt cache entry) -------
    with BatchRunner(workers=1, trace_store=False) as ref_runner:
        reference = ref_runner.run(CHAOS_JOBS)
    cache_dir = tmp_path / "chaos-cache"
    from repro.runner import ResultCache

    cache = ResultCache(cache_dir)
    cache.put(CHAOS_JOBS[0], reference[0])
    corrupt_cache_entry(cache, CHAOS_JOBS[0], mode="truncate")
    monkeypatch.setenv("REPRO_FAULT_STATE", str(tmp_path / "fault-state"))
    monkeypatch.setenv(
        "REPRO_FAULT_PLAN",
        json.dumps([
            {"match": "seed=901", "op": "die", "executions": [1]},
            {"match": "seed=902", "op": "hang", "executions": [1, 2],
             "hang_seconds": 60.0},
        ]),
    )
    chaos_policy = RetryPolicy(
        max_attempts=3, backoff_base=0.05, backoff_max=0.2, timeout=3.0
    )
    with BatchRunner(workers=2, trace_store=False, policy=chaos_policy,
                     cache_dir=cache_dir) as chaos_runner:
        chaos_results = chaos_runner.run(CHAOS_JOBS)
        chaos_report: RunReport = chaos_runner.report
    monkeypatch.delenv("REPRO_FAULT_PLAN")
    assert chaos_results == reference
    assert chaos_report.pool_respawns >= 1
    assert chaos_report.timeouts >= 1
    assert chaos_report.cache_fallbacks >= 1

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
        "benchmark": "test_fault_tolerance",
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
                "latest committed BENCH_000N baseline — now measured "
                "through the supervised dispatch path"
            ),
        },
        "fault_tolerance": {
            "chaos_acceptance": {
                "scenario": (
                    "4 jobs, 2 workers: one injected worker death "
                    "(os._exit), one hang past the 3s job timeout, one "
                    "pre-corrupted result-cache entry"
                ),
                "bit_identical_to_fault_free": True,
                "report": chaos_report.as_dict(),
            },
        },
    }

    # Merge, never clobber: other benches may extend this snapshot later.
    merged = {}
    if FAULT_SNAPSHOT.exists():
        try:
            merged = json.loads(FAULT_SNAPSHOT.read_text())
        except ValueError:
            merged = {}
    merged.update(snapshot)
    FAULT_SNAPSHOT.write_text(json.dumps(merged, indent=2) + "\n")
    print(f"\n[fault-tolerance] chaos run bit-identical with {chaos_report.describe()} "
          f"[saved to {FAULT_SNAPSHOT}]")
    print(f"\n[perf-gate ref] sweep best {min(gate_times):.2f} s @scale "
          f"{GATE_SCALE}, single-sim {gate_cps} [saved to {FAULT_SNAPSHOT}]")
    # Catastrophic-regression tripwires (machine-portable): the
    # gate-scale engine floors from the throughput module still apply.
    seed_cps = merged["seed_cycles_per_second"]
    assert gate_cps["2M4+2M2"] > 0.2 * seed_cps, (gate_cps, seed_cps)
    assert gate_cps["M8"] > 0.2 * seed_cps, (gate_cps, seed_cps)
