"""Micro-benchmarks: simulator, substrate and sweep throughput.

Not a paper artifact — these track the cost of the hot paths (the
profiling-first discipline of the HPC guides: measure before and after
touching the simulator loops).

Snapshots compose across PRs: ``test_simulator_cycles_per_second``
refreshes ``BENCH_0001.json`` (single-simulation throughput vs the seed
engine, whose baseline is read from the latest snapshot on disk rather
than hardcoded) and ``test_sweep_throughput`` writes ``BENCH_0002.json``
(whole-sweep wall clock vs the recorded PR 1 state, plus a per-stage
breakdown). Future perf PRs should append ``BENCH_000N.json`` rather
than overwrite.
"""

import json
import os
import platform
import time
from pathlib import Path

from repro.branch.perceptron import PerceptronPredictor
from repro.core.config import get_config
from repro.core.engine import Processor, clear_warm_cache
from repro.memory.cache import SetAssociativeCache
from repro.trace.stream import clear_trace_cache, trace_for

_REPO_ROOT = Path(__file__).resolve().parent.parent

#: Seed-engine throughput on the single-simulation benchmark, measured
#: before the timing-wheel / idle-skip / warm-cache engine landed. Used
#: only as the fallback when no BENCH snapshot records a baseline.
_FALLBACK_SEED_CYCLES_PER_SECOND = 26_462

BENCH_SNAPSHOT = _REPO_ROOT / "BENCH_0001.json"
SWEEP_SNAPSHOT = _REPO_ROOT / "BENCH_0002.json"
ENGINE_SNAPSHOT = _REPO_ROOT / "BENCH_0003.json"
CONTINUATION_SNAPSHOT = _REPO_ROOT / "BENCH_0004.json"
ENGINE_PKG_SNAPSHOT = _REPO_ROOT / "BENCH_0005.json"

#: PR 1 state (commit dc04876) on the reference performance sweep below:
#: best of 2 cold runs, 4 workers, measured on the development machine at
#: PR 2 time (runs: 23.607 s / 23.725 s).
PR1_SWEEP_SECONDS = 23.607

#: PR 2 state (commit 480cb87), re-measured on the development machine at
#: PR 3 time with interleaved A/B runs (the box drifts; same-session
#: numbers are the only fair baseline): single-simulation cycles/sec
#: (best of 4 cold processes) and the reference screening sweep (best of
#: 4 runs, 4 workers; BENCH_0002 recorded 11.613 s on a faster day).
PR2_SINGLE_SIM_CPS = {"2M4+2M2": 56_867, "M8": 41_588}
PR2_SWEEP_SECONDS = 11.94

#: PR 3 state (commit 1bd171b) on this machine, from the committed
#: BENCH_0003.json: single-simulation cycles/sec (best of 5) and the
#: reference screening sweep (best of 2 cold runs, 4 workers).
PR3_SINGLE_SIM_CPS = {"2M4+2M2": 56819, "M8": 40981}
PR3_SWEEP_SECONDS = 10.77

#: PR 4 state (commit d386c97) from the committed BENCH_0004.json,
#: recorded on the PR 4 development machine (interleaved same-session
#: A/B): single-sim cycles/sec, the screening reference sweep and the
#: exact-mode sweep (where the continuation bundles replace the whole
#: full-length tail). The PR 5 snapshot re-measures all three on *this*
#: machine with a fresh same-session A/B against the PR 4 source tree
#: (see BENCH_0005.json's ``pr4_code_same_session`` section).
PR4_SINGLE_SIM_CPS = {"2M4+2M2": 57_979, "M8": 42_058}
PR4_SWEEP_SECONDS = 10.76
PR4_EXACT_SWEEP_SECONDS = 18.65

#: The reference performance sweep: three standard configurations over a
#: class-and-size spread of workloads at the paper's default experiment
#: scale (commit 8000 / screen 1500 / 36 mappings).
SWEEP_CONFIGS = ("M8", "2M4+2M2", "1M6+2M4+2M2")
SWEEP_WORKLOADS = ("2W4", "4W6", "4W8", "6W4")
SWEEP_SCALE = dict(commit_target=8000, screen_target=1500, max_mappings=36)
SWEEP_WORKERS = 4

#: The perf-gate reference: the same sweep at a *fixed* 0.1 window scale
#: with 2 workers — small enough for a CI lane, and recorded in every
#: BENCH_0004 snapshot so `benchmarks/perf_gate.py` always compares
#: same-scale, same-shape numbers against the committed baseline.
GATE_SCALE = 0.1
GATE_WORKERS = 2
#: The gate's single-sim window is *not* scaled down to GATE_SCALE: a
#: 300-commit run finishes in ~15 ms, where run-to-run noise on a busy
#: host reaches the tripwire threshold. 1500 commits (~100 ms) keeps the
#: gate lane fast while the best-of-5 rate stays stable to a few percent.
GATE_SINGLE_TARGET = 1500


def _snapshot_number(path: Path) -> int:
    """Numeric suffix of BENCH_000N.json (numeric, not lexicographic, so
    BENCH_0010 outranks BENCH_0002)."""
    digits = path.stem.split("_")[-1]
    return int(digits) if digits.isdigit() else -1


def seed_baseline_cycles_per_second() -> int:
    """The seed engine's cycles/second, read from the newest BENCH
    snapshot that records it — so snapshots compose across PRs instead of
    each PR hardcoding the number."""
    for path in sorted(_REPO_ROOT.glob("BENCH_0*.json"),
                       key=_snapshot_number, reverse=True):
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        value = payload.get("seed_cycles_per_second")
        if isinstance(value, (int, float)) and value > 0:
            return int(value)
    return _FALLBACK_SEED_CYCLES_PER_SECOND


def test_cache_access_throughput(benchmark):
    c = SetAssociativeCache(64 * 1024, 2, 64, 8, name="bench")
    addrs = [(i * 2654435761) % (1 << 24) for i in range(4096)]

    def run():
        access = c.access
        for a in addrs:
            access(a)

    benchmark(run)


def test_perceptron_throughput(benchmark):
    p = PerceptronPredictor()
    pcs = [(0x40_0000 + 4 * i) for i in range(512)]

    def run():
        for pc in pcs:
            taken = p.predict(0, pc)
            p.update(0, pc, not taken)

    benchmark(run)


def test_trace_generation_throughput(benchmark):
    from repro.trace.benchmarks import get_benchmark
    from repro.trace.synthetic import StaticProgram, TraceGenerator

    prog = StaticProgram(get_benchmark("gcc"), seed=0)

    def run():
        TraceGenerator(prog, seed=1).generate(5_000)

    benchmark.pedantic(run, rounds=3, iterations=1)


def test_packed_trace_load_throughput(benchmark, tmp_path):
    """Store round trip: mmap-load + full materialization of a packed
    trace (the cost a cold worker pays instead of regeneration)."""
    from repro.trace.packed import PackedTrace, PackedTraceStore

    trace = trace_for("gcc", 6000)
    store = PackedTraceStore(tmp_path)
    store.save(PackedTrace.from_trace(trace), "gcc", 6000, 0)

    def run():
        packed = store.load("gcc", 6000, 0, len(trace.junk))
        return packed.materialize_entries()

    assert benchmark(run) == trace.entries


def test_simulator_cycles_per_second(benchmark):
    """End-to-end simulation speed on a 4-thread hdSMT configuration.

    Refreshes the ``BENCH_0001.json`` perf snapshot (cycles/sec now vs
    the seed engine) so the trajectory survives across PRs. Five rounds:
    the first pays the cold trace warm-up, the rest measure the steady
    state an experiment sweep actually runs in.
    """
    cfg = get_config("2M4+2M2")
    traces = [trace_for(b, 6000) for b in ("gzip", "twolf", "bzip2", "mcf")]
    seed_cps = seed_baseline_cycles_per_second()

    def run():
        proc = Processor(cfg, traces, (0, 2, 1, 3), commit_target=3000)
        proc.warm()
        proc.run()
        return proc.cycle

    cycles = benchmark.pedantic(run, rounds=5, iterations=1)
    assert cycles > 0

    stats = benchmark.stats.stats  # pytest-benchmark's Stats object
    best = cycles / stats.min
    mean = cycles / stats.mean
    snapshot = {
        "benchmark": "test_simulator_cycles_per_second",
        "scenario": {
            "config": "2M4+2M2",
            "benchmarks": ["gzip", "twolf", "bzip2", "mcf"],
            "mapping": [0, 2, 1, 3],
            "commit_target": 3000,
            "trace_length": 6000,
        },
        "cycles": cycles,
        "seconds_min": stats.min,
        "seconds_mean": stats.mean,
        "cycles_per_second_best": round(best),
        "cycles_per_second_mean": round(mean),
        "seed_cycles_per_second": seed_cps,
        "speedup_vs_seed_best": round(best / seed_cps, 3),
        "speedup_vs_seed_mean": round(mean / seed_cps, 3),
    }
    BENCH_SNAPSHOT.write_text(json.dumps(snapshot, indent=2) + "\n")
    print(f"\n[simulator throughput] best {best:,.0f} cycles/s, "
          f"{best / seed_cps:.2f}x the seed engine "
          f"[saved to {BENCH_SNAPSHOT}]")


def test_engine_and_screening_throughput(tmp_path, monkeypatch):
    """PR 3 snapshot (``BENCH_0003.json``): the combined effect of the
    column-backed fetch engine, the specialized monolithic (M8) pipeline
    path and marginal-IPC screening.

    Records single-simulation cycles/sec on the hdSMT reference scenario
    *and* the monolithic M8 baseline (the specialized path), plus the
    reference sweep wall clock under ``--screening``, against the PR 2
    numbers recorded above. The hard guarantees of this PR are exactness
    (differential fetch goldens, screening-equivalence contract) and
    strictly less screening work (the marginal ladder keeps 0.35 of each
    round against PR 2's 0.5 — ~16% fewer screen cycles on the validated
    10-pair spread); single-sim throughput is required not to regress
    beyond noise."""
    from repro.experiments.performance import (
        clear_result_cache,
        run_performance_experiment,
    )
    from repro.experiments.scale import ExperimentScale
    from repro.runner import BatchRunner

    monkeypatch.delenv("REPRO_RESULT_CACHE", raising=False)
    monkeypatch.delenv("REPRO_WORKERS", raising=False)

    def single_sim(config_name, mapping, rounds=5):
        cfg = get_config(config_name)
        traces = [trace_for(b, 6000) for b in ("gzip", "twolf", "bzip2", "mcf")]
        best = None
        cycles = 0
        for _ in range(rounds):
            proc = Processor(cfg, traces, mapping, commit_target=3000)
            proc.warm()
            t0 = time.perf_counter()
            proc.run()
            dt = time.perf_counter() - t0
            cycles = proc.cycle
            if best is None or dt < best:
                best = dt
        return round(cycles / best)

    hdsmt_cps = single_sim("2M4+2M2", (0, 2, 1, 3))
    m8_cps = single_sim("M8", (0, 0, 0, 0))

    scale = ExperimentScale(**SWEEP_SCALE)
    sweep_times = []
    for _ in range(2):
        clear_result_cache()
        clear_trace_cache()
        clear_warm_cache()
        runner = BatchRunner(workers=SWEEP_WORKERS,
                             trace_store=tmp_path / "trace-store")
        t0 = time.perf_counter()
        run_performance_experiment(SWEEP_CONFIGS, SWEEP_WORKLOADS, scale,
                                   runner=runner, screening=True)
        sweep_times.append(time.perf_counter() - t0)
        runner.close()
    sweep_best = min(sweep_times)

    snapshot = {
        "benchmark": "test_engine_and_screening_throughput",
        "seed_cycles_per_second": seed_baseline_cycles_per_second(),
        "single_sim": {
            "scenario": {
                "benchmarks": ["gzip", "twolf", "bzip2", "mcf"],
                "commit_target": 3000,
                "trace_length": 6000,
            },
            "pr2_cycles_per_second": PR2_SINGLE_SIM_CPS,
            "cycles_per_second": {"2M4+2M2": hdsmt_cps, "M8": m8_cps},
        },
        "reference_sweep": {
            "configs": list(SWEEP_CONFIGS),
            "workloads": list(SWEEP_WORKLOADS),
            "scale": SWEEP_SCALE,
            "workers": SWEEP_WORKERS,
            "screening": True,
            "pr2_recorded_seconds": PR2_SWEEP_SECONDS,
            "seconds_best": round(sweep_best, 3),
            "seconds_all": [round(t, 3) for t in sweep_times],
            "speedup_vs_pr2_recorded": round(PR2_SWEEP_SECONDS / sweep_best, 3),
        },
        "screen_work_note": (
            "marginal-IPC ladder (keep 0.35, top_fraction 0.67) runs "
            "~16% fewer screen cycles than PR 2's cumulative keep-0.5 "
            "ladder on the validated 10-pair spread, with identical "
            "reference-scenario selection "
            "(tests/experiments/test_screening_equivalence.py)"
        ),
    }
    ENGINE_SNAPSHOT.write_text(json.dumps(snapshot, indent=2) + "\n")
    print(f"\n[engine+screening] single-sim {hdsmt_cps:,}/s (hdSMT) "
          f"{m8_cps:,}/s (M8); sweep best {sweep_best:.2f} s vs PR2 "
          f"{PR2_SWEEP_SECONDS:.2f} s [saved to {ENGINE_SNAPSHOT}]")
    # Catastrophic-regression tripwire: same-machine PR-over-PR drift is
    # judged from the committed BENCH_000N snapshots (boxes differ and
    # drift), but an engine-breaking regression — e.g. the fetch block
    # cache disabled so every packet re-decodes — costs 5-10x and must
    # fail even on hardware several times slower than the recorded dev
    # machine. The seed engine measured ~26.5k cycles/s; require at
    # least ~30% of that.
    seed_cps = snapshot["seed_cycles_per_second"]
    assert hdsmt_cps > 0.3 * seed_cps, (hdsmt_cps, seed_cps)
    assert m8_cps > 0.3 * seed_cps, (m8_cps, seed_cps)


def test_continuation_sweep_throughput(tmp_path, monkeypatch):
    """PR 4 snapshot (``BENCH_0004.json``): the combined effect of the
    merged-ready issue stage and the batched full-length continuation
    scheduler.

    Always records a **perf-gate reference**: the reference sweep and
    single-simulation throughput at a fixed small scale (``GATE_SCALE``,
    ``GATE_WORKERS``) — cheap enough for a CI lane, and same-shape across
    snapshots so ``benchmarks/perf_gate.py`` can compare a fresh run
    against the committed baseline without cross-scale normalization.

    At full window scale (``REPRO_SIM_SCALE`` unset or >= 1) it
    additionally re-measures the PR 3 reference numbers on this machine:
    single-sim cycles/sec for the hdSMT and M8 scenarios, the screening
    reference sweep (the acceptance bar: best wall clock <= BENCH_0003's
    recorded best) and one exact-mode sweep — where the continuation
    bundles replace the per-run job tail entirely.
    """
    from repro.experiments.performance import (
        clear_result_cache,
        run_performance_experiment,
    )
    from repro.experiments.scale import ExperimentScale
    from repro.runner import BatchRunner

    monkeypatch.delenv("REPRO_RESULT_CACHE", raising=False)
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    env_scale = float(os.environ.get("REPRO_SIM_SCALE") or 1)
    full_windows = env_scale >= 1

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

    def sweep(scale, workers, screening, repeats, store_dir):
        times = []
        for _ in range(repeats):
            clear_result_cache()
            clear_trace_cache()
            clear_warm_cache()
            runner = BatchRunner(workers=workers, trace_store=store_dir)
            t0 = time.perf_counter()
            run_performance_experiment(SWEEP_CONFIGS, SWEEP_WORKLOADS, scale,
                                       runner=runner, screening=screening)
            times.append(time.perf_counter() - t0)
            runner.close()
        return times

    # --- perf-gate reference (always, fixed scale) -----------------------
    gate_scale = ExperimentScale(**SWEEP_SCALE).scaled(GATE_SCALE)
    gate_times = sweep(gate_scale, GATE_WORKERS, screening=True, repeats=2,
                       store_dir=tmp_path / "gate-store")
    gate_cps = {
        "2M4+2M2": single_sim("2M4+2M2", (0, 2, 1, 3), GATE_SINGLE_TARGET),
        "M8": single_sim("M8", (0, 0, 0, 0), GATE_SINGLE_TARGET),
    }
    snapshot = {
        "benchmark": "test_continuation_sweep_throughput",
        "seed_cycles_per_second": seed_baseline_cycles_per_second(),
        "perf_gate": {
            "scale": GATE_SCALE,
            "workers": GATE_WORKERS,
            # Machine class of the recording host: the gate only enforces
            # against a baseline recorded on the same class (a different
            # class downgrades the run to record-only — cross-machine
            # absolute numbers are not comparable).
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
                "latest committed BENCH_000N baseline"
            ),
        },
    }

    # --- full-scale PR-over-PR measurements ------------------------------
    if full_windows:
        hdsmt_cps = single_sim("2M4+2M2", (0, 2, 1, 3), 3000)
        m8_cps = single_sim("M8", (0, 0, 0, 0), 3000)
        scale = ExperimentScale(**SWEEP_SCALE)
        screening_times = sweep(scale, SWEEP_WORKERS, screening=True,
                                repeats=2, store_dir=tmp_path / "trace-store")
        exact_times = sweep(scale, SWEEP_WORKERS, screening=False, repeats=1,
                            store_dir=tmp_path / "trace-store")
        sweep_best = min(screening_times)
        snapshot["single_sim"] = {
            "scenario": {
                "benchmarks": ["gzip", "twolf", "bzip2", "mcf"],
                "commit_target": 3000,
                "trace_length": 6000,
            },
            "pr3_cycles_per_second": PR3_SINGLE_SIM_CPS,
            "cycles_per_second": {"2M4+2M2": hdsmt_cps, "M8": m8_cps},
        }
        snapshot["reference_sweep"] = {
            "configs": list(SWEEP_CONFIGS),
            "workloads": list(SWEEP_WORKLOADS),
            "scale": SWEEP_SCALE,
            "workers": SWEEP_WORKERS,
            "screening": True,
            "pr3_recorded_seconds": PR3_SWEEP_SECONDS,
            "seconds_best": round(sweep_best, 3),
            "seconds_all": [round(t, 3) for t in screening_times],
            "speedup_vs_pr3_recorded": round(PR3_SWEEP_SECONDS / sweep_best, 3),
        }
        snapshot["exact_sweep"] = {
            "screening": False,
            "seconds": round(exact_times[0], 3),
            "note": (
                "exact mode is where the continuation scheduler replaces "
                "the whole full-length tail (screening mode folds "
                "best/worst/heur into the ladders; only the monolithic "
                "pairs' runs ride in bundles)"
            ),
        }
        print(f"\n[continuation] single-sim {hdsmt_cps:,}/s (hdSMT) "
              f"{m8_cps:,}/s (M8); screening sweep best {sweep_best:.2f} s "
              f"vs PR3 {PR3_SWEEP_SECONDS:.2f} s; exact "
              f"{exact_times[0]:.2f} s [saved to {CONTINUATION_SNAPSHOT}]")

    if not full_windows and CONTINUATION_SNAPSHOT.exists():
        # Gate-scale runs refresh only the gate reference: merge into the
        # existing snapshot so the committed full-scale record
        # (single_sim / reference_sweep / exact_sweep) survives a local
        # `make perf-gate`.
        try:
            merged = json.loads(CONTINUATION_SNAPSHOT.read_text())
        except ValueError:
            merged = {}
        merged.update(snapshot)
        snapshot = merged
    CONTINUATION_SNAPSHOT.write_text(json.dumps(snapshot, indent=2) + "\n")
    print(f"\n[perf-gate ref] sweep best {min(gate_times):.2f} s @scale "
          f"{GATE_SCALE}, single-sim {gate_cps} [saved to "
          f"{CONTINUATION_SNAPSHOT}]")
    # Catastrophic-regression tripwires (machine-portable; see the PR 3
    # test above for the rationale). The gate-scale rate amortizes less
    # start-up, so its floor is looser.
    seed_cps = snapshot["seed_cycles_per_second"]
    assert gate_cps["2M4+2M2"] > 0.2 * seed_cps, (gate_cps, seed_cps)
    assert gate_cps["M8"] > 0.2 * seed_cps, (gate_cps, seed_cps)


def test_engine_package_throughput(tmp_path, monkeypatch):
    """PR 5 snapshot (``BENCH_0005.json``): the decomposed engine package
    (``core/engine/`` + registry-composed stages), the unified runner job
    protocol and the bundled exact-mode screens.

    The PR's hard guarantees are exactness (shim test, registry lockstep
    suite, golden equivalence) and the structural dispatch win (exact
    screens in at most ``workers`` bundle jobs — see
    ``test_dispatch_overhead.py``); throughput is required not to regress
    beyond noise, since the refactor moves code but neither adds nor
    removes per-cycle work.

    Always records the **perf-gate reference** (fixed ``GATE_SCALE``,
    same shape as BENCH_0004's — ``benchmarks/perf_gate.py`` now treats
    this snapshot as the fresh gate source). At full window scale it
    additionally re-measures PR 4's reference numbers on this machine:
    single-sim cycles/sec, the screening reference sweep and the
    exact-mode sweep (whose screens now dispatch as bundles). Sections
    written by other benches (``dispatch_overhead``) or recorded
    manually (``pr4_code_same_session``) are preserved — the snapshot is
    merged, never clobbered.
    """
    from repro.experiments.performance import (
        clear_result_cache,
        run_performance_experiment,
    )
    from repro.experiments.scale import ExperimentScale
    from repro.runner import BatchRunner

    monkeypatch.delenv("REPRO_RESULT_CACHE", raising=False)
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    env_scale = float(os.environ.get("REPRO_SIM_SCALE") or 1)
    full_windows = env_scale >= 1

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

    def sweep(scale, workers, screening, repeats, store_dir):
        times = []
        jobs = []
        for _ in range(repeats):
            clear_result_cache()
            clear_trace_cache()
            clear_warm_cache()
            runner = BatchRunner(workers=workers, trace_store=store_dir)
            t0 = time.perf_counter()
            run_performance_experiment(SWEEP_CONFIGS, SWEEP_WORKLOADS, scale,
                                       runner=runner, screening=screening)
            times.append(time.perf_counter() - t0)
            jobs.append(runner.jobs_run)
            runner.close()
        return times, jobs

    # --- perf-gate reference (always, fixed scale) -----------------------
    gate_scale = ExperimentScale(**SWEEP_SCALE).scaled(GATE_SCALE)
    gate_times, _ = sweep(gate_scale, GATE_WORKERS, screening=True, repeats=2,
                          store_dir=tmp_path / "gate-store")
    gate_cps = {
        "2M4+2M2": single_sim("2M4+2M2", (0, 2, 1, 3), GATE_SINGLE_TARGET),
        "M8": single_sim("M8", (0, 0, 0, 0), GATE_SINGLE_TARGET),
    }
    snapshot = {
        "benchmark": "test_engine_package_throughput",
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
                "latest committed BENCH_000N baseline"
            ),
        },
    }

    # --- full-scale PR-over-PR measurements ------------------------------
    if full_windows:
        hdsmt_cps = single_sim("2M4+2M2", (0, 2, 1, 3), 3000)
        m8_cps = single_sim("M8", (0, 0, 0, 0), 3000)
        scale = ExperimentScale(**SWEEP_SCALE)
        screening_times, _ = sweep(scale, SWEEP_WORKERS, screening=True,
                                   repeats=2,
                                   store_dir=tmp_path / "trace-store")
        exact_times, exact_jobs = sweep(scale, SWEEP_WORKERS, screening=False,
                                        repeats=1,
                                        store_dir=tmp_path / "trace-store")
        sweep_best = min(screening_times)
        snapshot["single_sim"] = {
            "scenario": {
                "benchmarks": ["gzip", "twolf", "bzip2", "mcf"],
                "commit_target": 3000,
                "trace_length": 6000,
            },
            "pr4_cycles_per_second": PR4_SINGLE_SIM_CPS,
            "cycles_per_second": {"2M4+2M2": hdsmt_cps, "M8": m8_cps},
        }
        snapshot["reference_sweep"] = {
            "configs": list(SWEEP_CONFIGS),
            "workloads": list(SWEEP_WORKLOADS),
            "scale": SWEEP_SCALE,
            "workers": SWEEP_WORKERS,
            "screening": True,
            "pr4_recorded_seconds": PR4_SWEEP_SECONDS,
            "seconds_best": round(sweep_best, 3),
            "seconds_all": [round(t, 3) for t in screening_times],
        }
        snapshot["exact_sweep"] = {
            "screening": False,
            "pr4_recorded_seconds": PR4_EXACT_SWEEP_SECONDS,
            "seconds": round(exact_times[0], 3),
            "jobs_dispatched": exact_jobs[0],
            "note": (
                "exact mode now bundles the candidate screens as well as "
                "the full-length tail: the whole sweep is a handful of "
                "worker jobs (jobs_dispatched) instead of one per "
                "candidate mapping — see the dispatch_overhead section "
                "for the scaling curve"
            ),
        }
        print(f"\n[engine-package] single-sim {hdsmt_cps:,}/s (hdSMT) "
              f"{m8_cps:,}/s (M8); screening sweep best {sweep_best:.2f} s; "
              f"exact {exact_times[0]:.2f} s in {exact_jobs[0]} jobs "
              f"[saved to {ENGINE_PKG_SNAPSHOT}]")

    # Merge, never clobber: other benches and the manually recorded
    # same-session A/B live in the same snapshot.
    merged = {}
    if ENGINE_PKG_SNAPSHOT.exists():
        try:
            merged = json.loads(ENGINE_PKG_SNAPSHOT.read_text())
        except ValueError:
            merged = {}
    merged.update(snapshot)
    ENGINE_PKG_SNAPSHOT.write_text(json.dumps(merged, indent=2) + "\n")
    print(f"\n[perf-gate ref] sweep best {min(gate_times):.2f} s @scale "
          f"{GATE_SCALE}, single-sim {gate_cps} [saved to "
          f"{ENGINE_PKG_SNAPSHOT}]")
    # Catastrophic-regression tripwires (machine-portable; see the PR 3
    # test above for the rationale).
    seed_cps = merged["seed_cycles_per_second"]
    assert gate_cps["2M4+2M2"] > 0.2 * seed_cps, (gate_cps, seed_cps)
    assert gate_cps["M8"] > 0.2 * seed_cps, (gate_cps, seed_cps)


def _sweep_stage_breakdown() -> dict:
    """Cold per-stage costs for the reference scenario: trace generation,
    warm-up (cold + memoized restore) and the timed run itself."""
    cfg = get_config("2M4+2M2")
    names = ("gzip", "twolf", "bzip2", "mcf")
    length = SWEEP_SCALE["commit_target"]

    clear_trace_cache()
    t0 = time.perf_counter()
    traces = [trace_for(b, length) for b in names]
    t1 = time.perf_counter()
    clear_warm_cache()
    proc = Processor(cfg, traces, (0, 2, 1, 3),
                     commit_target=SWEEP_SCALE["commit_target"])
    proc.warm()
    t2 = time.perf_counter()
    proc.mem.reset_stats()
    proc.branch_unit.reset_stats()
    proc.run()
    t3 = time.perf_counter()
    proc2 = Processor(cfg, traces, (0, 2, 1, 3),
                      commit_target=SWEEP_SCALE["commit_target"])
    proc2.warm()
    t4 = time.perf_counter()
    return {
        "trace_gen_seconds": round(t1 - t0, 4),
        "warm_cold_seconds": round(t2 - t1, 4),
        "warm_restore_seconds": round(t4 - t3, 4),
        "run_seconds": round(t3 - t2, 4),
    }


def test_sweep_throughput(tmp_path, monkeypatch):
    """Whole-sweep wall clock: the headline number of this PR.

    Measures the reference performance sweep (see SWEEP_* above) with 4
    workers in two modes — exact oracle screening without the shared
    trace store (the closest runtime proxy of the PR 1 scheduler) and
    ``--screening`` with the full packed-store machinery — and writes
    ``BENCH_0002.json`` comparing both against the recorded PR 1 wall
    clock. The PR's acceptance bar (speedup_vs_pr1_recorded >= 2) is
    judged from the snapshot, since the recorded PR 1 number is specific
    to the machine it was measured on; the assertion below is a
    machine-portable regression tripwire on the screening-vs-exact ratio
    measured in this same process.
    """
    from repro.experiments.performance import (
        clear_result_cache,
        run_performance_experiment,
    )
    from repro.experiments.scale import ExperimentScale
    from repro.runner import BatchRunner

    # The sweep must actually simulate: no stale result cache, and one
    # session-local trace/warm store shared by the repeats (the packed
    # store is persistent machinery by design).
    monkeypatch.delenv("REPRO_RESULT_CACHE", raising=False)
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    store_dir = tmp_path / "trace-store"
    scale = ExperimentScale(**SWEEP_SCALE)

    def measure(screening: bool, repeats: int, trace_store) -> list:
        times = []
        for _ in range(repeats):
            clear_result_cache()
            clear_trace_cache()
            clear_warm_cache()
            runner = BatchRunner(workers=SWEEP_WORKERS, trace_store=trace_store)
            t0 = time.perf_counter()
            run_performance_experiment(
                SWEEP_CONFIGS, SWEEP_WORKLOADS, scale,
                runner=runner, screening=screening,
            )
            times.append(time.perf_counter() - t0)
            runner.close()
        return times

    exact_times = measure(screening=False, repeats=1, trace_store=False)
    screening_times = measure(screening=True, repeats=3,
                              trace_store=store_dir)
    best = min(screening_times)
    stages = _sweep_stage_breakdown()

    snapshot = {
        "benchmark": "test_sweep_throughput",
        "reference_sweep": {
            "configs": list(SWEEP_CONFIGS),
            "workloads": list(SWEEP_WORKLOADS),
            "scale": SWEEP_SCALE,
            "workers": SWEEP_WORKERS,
        },
        "pr1_recorded_seconds": PR1_SWEEP_SECONDS,
        "pr1_recorded_note": (
            "PR 1 state (commit dc04876), best of 2 cold runs with 4 "
            "workers, measured on the same machine at PR 2 time"
        ),
        "exact_mode_seconds": round(exact_times[0], 3),
        "screening_seconds_best": round(best, 3),
        "screening_seconds_all": [round(t, 3) for t in screening_times],
        "speedup_vs_pr1_recorded": round(PR1_SWEEP_SECONDS / best, 3),
        "speedup_vs_exact_now": round(exact_times[0] / best, 3),
        "stages": stages,
    }
    SWEEP_SNAPSHOT.write_text(json.dumps(snapshot, indent=2) + "\n")
    print(f"\n[sweep throughput] screening best {best:.2f} s vs PR1 "
          f"{PR1_SWEEP_SECONDS:.2f} s -> "
          f"{PR1_SWEEP_SECONDS / best:.2f}x (exact now: "
          f"{exact_times[0]:.2f} s) [saved to {SWEEP_SNAPSHOT}]")
    # Same-machine, same-process guard (measured ~1.8x; generous slack
    # for noisy boxes): screening must clearly beat the exact sweep.
    assert exact_times[0] / best >= 1.3
