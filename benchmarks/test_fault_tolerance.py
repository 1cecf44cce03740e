"""PR 6 snapshot (``BENCH_0006.json``): the supervised dispatch layer.

The PR's hard guarantees are behavioural — bit-identical results through
retry/respawn/degradation, pinned by ``tests/runner/test_faults.py`` —
so the number that matters here is the *cost of supervision when nothing
goes wrong*: the per-job-future scheduler (submit + wait + deadline
bookkeeping) versus the old single ``pool.map`` call it replaced, on an
identical no-fault batch (``fault_tolerance.overhead``, interleaved A/B,
best-of). The acceptance bar is overhead within noise.

The snapshot also records a **chaos acceptance run** — the ISSUE's
injected worker death + hang + corrupted cache entry sweep — with its
RunReport, plus the standard **perf-gate reference** section (fixed
``GATE_SCALE``, same shape as BENCH_0005's; ``benchmarks/perf_gate.py``
treats this snapshot as the fresh gate source). Sections written by
other benches are preserved — merge, never clobber.
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

#: The A/B batch: a dozen light jobs across the standard configurations
#: (seeds vary the trace draw so no in-process memo collapses the work).
AB_JOBS = tuple(
    SimJob(cfg, ("gzip", "twolf", "bzip2", "mcf"), mapping, 2000, seed=s)
    for s, (cfg, mapping) in enumerate(
        [("M8", (0, 0, 0, 0)), ("2M4+2M2", (0, 2, 1, 3))] * 6
    )
)
AB_WORKERS = 2
AB_REPEATS = 3

#: The chaos scenario jobs (distinct seeds make per-job fault matching
#: deterministic; see tests/runner/test_faults.py for the same pattern).
CHAOS_JOBS = tuple(
    SimJob("M8", ("gzip", "twolf"), (0, 0), 800, seed=900 + i)
    for i in range(4)
)


def test_fault_tolerance_overhead(tmp_path, monkeypatch):
    """No-fault supervision overhead (A/B vs the legacy ``pool.map``
    path), the chaos acceptance run, and the perf-gate reference."""
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

    # --- no-fault overhead: supervised vs legacy pool.map (interleaved) --
    def run_supervised():
        with BatchRunner(workers=AB_WORKERS, trace_store=False) as runner:
            t0 = time.perf_counter()
            results = runner.run(AB_JOBS)
            return time.perf_counter() - t0, results

    def run_pool_map():
        with BatchRunner(workers=AB_WORKERS, trace_store=False) as runner:
            t0 = time.perf_counter()
            results = runner._run_pool_map(AB_JOBS)
            return time.perf_counter() - t0, results

    supervised_times, legacy_times = [], []
    for _ in range(AB_REPEATS):
        t_sup, sup_results = run_supervised()
        t_leg, leg_results = run_pool_map()
        assert sup_results == leg_results  # bit-identical, always
        supervised_times.append(t_sup)
        legacy_times.append(t_leg)
    sup_best, leg_best = min(supervised_times), min(legacy_times)
    overhead_pct = round(100.0 * (sup_best / leg_best - 1.0), 1)

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
        "benchmark": "test_fault_tolerance_overhead",
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
            "overhead": {
                "jobs": len(AB_JOBS),
                "workers": AB_WORKERS,
                "commit_target": 2000,
                "supervised_seconds_best": round(sup_best, 3),
                "supervised_seconds_all": [
                    round(t, 3) for t in supervised_times
                ],
                "pool_map_seconds_best": round(leg_best, 3),
                "pool_map_seconds_all": [round(t, 3) for t in legacy_times],
                "overhead_pct_best": overhead_pct,
                "note": (
                    "per-job-future supervision vs the legacy single "
                    "pool.map dispatch on an identical no-fault batch "
                    "(interleaved A/B, fresh runner + pool per "
                    "measurement); results asserted bit-identical on "
                    "every repeat"
                ),
            },
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
    print(f"\n[fault-tolerance] supervised {sup_best:.2f} s vs pool.map "
          f"{leg_best:.2f} s ({overhead_pct:+.1f}%); chaos run "
          f"bit-identical with {chaos_report.describe()} "
          f"[saved to {FAULT_SNAPSHOT}]")
    print(f"\n[perf-gate ref] sweep best {min(gate_times):.2f} s @scale "
          f"{GATE_SCALE}, single-sim {gate_cps} [saved to {FAULT_SNAPSHOT}]")
    # Catastrophic-regression tripwires (machine-portable): supervision
    # must never cost multiples of the dispatch it replaced, and the
    # gate-scale engine floors from the throughput module still apply.
    assert sup_best < 2.0 * leg_best, (sup_best, leg_best)
    seed_cps = merged["seed_cycles_per_second"]
    assert gate_cps["2M4+2M2"] > 0.2 * seed_cps, (gate_cps, seed_cps)
    assert gate_cps["M8"] > 0.2 * seed_cps, (gate_cps, seed_cps)
