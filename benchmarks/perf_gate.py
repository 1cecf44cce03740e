#!/usr/bin/env python
"""Throughput-regression tripwire (the CI ``perf-gate`` job).

Snapshots the committed ``BENCH_000N.json`` baseline *before* the
benchmarks overwrite it, re-runs the throughput suite
(``RUN_BENCH=1 pytest benchmarks/test_simulator_throughput.py
benchmarks/test_service_latency.py benchmarks/test_cache_tiers.py``),
then compares the fresh ``perf_gate`` reference section of
``BENCH_0010.json`` (written by ``test_cache_tiers``, whose gate sweep
and single-sims run the local supervised path with no result cache in
the loop, so the gate keeps measuring the engine; the same snapshot
records the warm-tier and work-stealing A/Bs) — single-simulation cycles/sec
and the fixed-scale reference-sweep wall clock — against the newest
committed snapshot that records one (baseline discovery walks
``BENCH_0*.json`` newest-first, so appending ``BENCH_000N`` snapshots
keeps working). A regression beyond ``PERF_GATE_TOLERANCE`` (default
0.25, i.e. >25%) fails the gate.

The gate section is recorded at a *fixed* window scale
(``GATE_SCALE`` in the benchmark module), so fresh and baseline numbers
are always same-shape — no cross-scale normalization. The numbers are
still machine-dependent: the tripwire assumes the comparison runs on
hardware of the same class that recorded the baseline (one CI runner
family, or the same dev box). 25% is far above run-to-run noise for
these benchmarks but far below the cost of a real engine regression
(e.g. a disabled fetch-block cache costs 5-10x).

Exit status: 0 (pass / record-only when no baseline exists), 1 (regression
or missing fresh snapshot), pytest's status when the benchmark run fails.
"""

from __future__ import annotations

import json
import os
import platform
import shlex
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
FRESH_SNAPSHOT = REPO_ROOT / "BENCH_0010.json"


def snapshot_number(path: Path) -> int:
    digits = path.stem.split("_")[-1]
    return int(digits) if digits.isdigit() else -1


def load_gate_baseline() -> tuple[dict, Path] | tuple[None, None]:
    """The ``perf_gate`` section of the newest committed snapshot that
    carries one (read before the benchmarks overwrite the files)."""
    for path in sorted(REPO_ROOT.glob("BENCH_0*.json"),
                       key=snapshot_number, reverse=True):
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        gate = payload.get("perf_gate")
        if isinstance(gate, dict) and "cycles_per_second" in gate:
            return gate, path
    return None, None


def machine_class() -> str:
    return f"{platform.system()}-{platform.machine()}-cpu{os.cpu_count()}"


def run_benchmarks() -> int:
    env = dict(os.environ)
    env.setdefault("RUN_BENCH", "1")
    env.setdefault("REPRO_SIM_SCALE", "0.1")
    env.setdefault("PYTHONPATH", str(REPO_ROOT / "src"))
    cmd = [sys.executable, "-m", "pytest",
           "benchmarks/test_simulator_throughput.py",
           "benchmarks/test_service_latency.py",
           "benchmarks/test_cache_tiers.py", "-q"]
    # e.g. PERF_GATE_PYTEST_ARGS="-k test_continuation_sweep_throughput"
    # narrows the run to just the test that produces the gate reference.
    extra = os.environ.get("PERF_GATE_PYTEST_ARGS")
    if extra:
        cmd.extend(shlex.split(extra))
    print(f"[perf-gate] running: {' '.join(cmd)} "
          f"(REPRO_SIM_SCALE={env['REPRO_SIM_SCALE']})", flush=True)
    return subprocess.call(cmd, cwd=REPO_ROOT, env=env)


def main() -> int:
    tolerance = float(os.environ.get("PERF_GATE_TOLERANCE", "0.25"))
    baseline, baseline_path = load_gate_baseline()

    # The benchmark modules rewrite every BENCH_000N.json they own; only
    # BENCH_0010 carries the fresh gate reference (and merge-protects its
    # other sections itself). Preserve the other committed snapshots —
    # they are this-machine historical records, not gate outputs — so the
    # gate never leaves the tree dirty with wrong-machine numbers.
    preserved = {
        path: path.read_text()
        for path in sorted(REPO_ROOT.glob("BENCH_0*.json"))
        if path != FRESH_SNAPSHOT
    }
    try:
        status = run_benchmarks()
    finally:
        for path, text in preserved.items():
            path.write_text(text)
    if status != 0:
        print(f"[perf-gate] FAIL: benchmark run exited {status}")
        return status

    try:
        fresh = json.loads(FRESH_SNAPSHOT.read_text())["perf_gate"]
    except (OSError, ValueError, KeyError):
        print(f"[perf-gate] FAIL: {FRESH_SNAPSHOT} lacks a perf_gate "
              "section after the benchmark run")
        return 1

    if baseline is None:
        print("[perf-gate] no committed BENCH_000N.json records a "
              "perf_gate baseline yet: recording-only pass "
              f"(fresh reference written to {FRESH_SNAPSHOT})")
        return 0

    base_machine = baseline.get("machine")
    here = machine_class()
    if base_machine is not None and base_machine != here:
        # Absolute throughput numbers do not transfer across machine
        # classes; enforcing would produce false regressions (or false
        # passes) on the first run on new hardware. Record-only: promote
        # the uploaded fresh snapshot to the committed baseline to start
        # enforcing on this class.
        print(f"[perf-gate] baseline {baseline_path.name} was recorded on "
              f"'{base_machine}' but this run is on '{here}': "
              "recording-only pass (commit the fresh snapshot to enforce "
              "on this machine class)")
        return 0

    print(f"[perf-gate] baseline: {baseline_path.name}, "
          f"tolerance: {tolerance:.0%}")
    failures = []

    base_cps = baseline["cycles_per_second"]
    fresh_cps = fresh["cycles_per_second"]
    for config, base in sorted(base_cps.items()):
        now = fresh_cps.get(config)
        if now is None:
            failures.append(f"cycles/sec for {config}: missing in fresh run")
            continue
        floor = (1.0 - tolerance) * base
        verdict = "ok" if now >= floor else "REGRESSION"
        print(f"[perf-gate]   {config}: {now:,} cycles/s vs baseline "
              f"{base:,} (floor {floor:,.0f}) -> {verdict}")
        if now < floor:
            failures.append(
                f"cycles/sec for {config}: {now:,} < {floor:,.0f} "
                f"({tolerance:.0%} below baseline {base:,})"
            )

    base_sweep = baseline.get("sweep_seconds_best")
    fresh_sweep = fresh.get("sweep_seconds_best")
    if base_sweep:
        if not fresh_sweep:
            # Half the tripwire silently disappearing is itself a failure.
            failures.append("reference-sweep wall clock: missing in fresh run")
        else:
            ceiling = (1.0 + tolerance) * base_sweep
            verdict = "ok" if fresh_sweep <= ceiling else "REGRESSION"
            print(f"[perf-gate]   reference sweep: {fresh_sweep:.2f} s vs "
                  f"baseline {base_sweep:.2f} s (ceiling {ceiling:.2f}) "
                  f"-> {verdict}")
            if fresh_sweep > ceiling:
                failures.append(
                    f"reference-sweep wall clock: {fresh_sweep:.2f} s > "
                    f"{ceiling:.2f} s ({tolerance:.0%} above baseline "
                    f"{base_sweep:.2f} s)"
                )

    if failures:
        print("[perf-gate] FAIL:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print("[perf-gate] PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
