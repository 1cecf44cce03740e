"""The repository's benchmark: one workload, end to end or traced.

    python3 perfbench/run.py --workload single_sim --seed 1 --seconds 30 --trace 0

Run from anywhere; it works in the checkout that contains it and reads
and writes only there (scratch files go to ``.perfbench/`` and are
removed at exit). Workloads: ``single_sim``, ``figures_sweep`` and
``serve_mix`` (see the module of the same name and ``README.md``).

``--trace 0`` measures for ``--seconds`` and prints the end-to-end
metrics. ``--trace 1`` measures a third of ``--seconds`` untraced, then
two thirds with the layer wrappers of ``spans.py`` installed, and prints
the per-layer metrics, the workload's per-class numbers from the
untraced part, and the tracing overhead between the two.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
The line before it is a digest of the simulated statistics the run
checked its outputs against.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from common import RunDir, leftover_processes, peak_rss_mb  # noqa: E402

WORKLOADS = ("single_sim", "figures_sweep", "serve_mix")
DEFAULT_SEED = 1

#: end-to-end metrics (``--trace 0``) and their units
E2E_UNITS = {
    "setup_s": "s",
    "success_rate": "ratio",
    "peak_rss_mb": "MB",
    "op_ms": "ms",
    "cycles_per_s": "cycles/s",
}

#: per-class numbers of one workload, from the untraced part of a
#: ``--trace 1`` run (0 on the workloads that have no such class)
DETAIL_UNITS = {
    "cycles_per_s.m8": "cycles/s",
    "cycles_per_s.2m4_2m2": "cycles/s",
    "cycles_per_s.1m6_2m4_2m2": "cycles/s",
    "sweep_s": "s",
    "warm_p50_ms": "ms",
    "warm_p99_ms": "ms",
    "cold_p50_ms": "ms",
    "overlap_p50_ms": "ms",
    "requests_per_s": "1/s",
    "tracing.overhead_pct": "%",
}


class Context(NamedTuple):
    root: str
    seed: int
    tiny: bool  #: self-test sizes
    corrupt: bool  #: self-test: tamper with one reference output
    rundir: RunDir


def _workload(name: str, ctx: Context):
    if name == "single_sim":
        from single_sim import SingleSim as cls
    elif name == "figures_sweep":
        from figures_sweep import FiguresSweep as cls
    else:
        from serve_mix import ServeMix as cls
    return cls(ctx)


def _measure(wl, args, rundir: RunDir):
    """Set up, measure, tear down; returns (phases, metrics, failed)."""
    failed = 0
    try:
        setup_s = wl.setup()
        if not args.trace:
            phase = wl.measure(args.seconds)
            metrics = dict(wl.e2e(phase), setup_s=setup_s)
            phases = [phase]
        else:
            import layers
            import spans

            base = wl.measure(args.seconds / 3)
            rec = spans.Recorder(rundir.sub("spans"))
            undo = spans.install(rec) if wl.in_process else None
            try:
                traced = wl.measure(args.seconds * 2 / 3, rec)
            finally:
                if undo is not None:
                    undo()
            phases = [base, traced]
            recorded, worker_pids = rec.collect()
            window = [s for s in recorded if traced.t0 <= s.t0 <= traced.t1]
            metrics = layers.compute(window, worker_pids, len(traced.ops),
                                     traced.useful_cycles, traced.client_latency)
            metrics.update(dict.fromkeys(DETAIL_UNITS, 0.0))
            metrics.update(wl.details(base))
            metrics["tracing.overhead_pct"] = 100 * (
                wl.e2e(traced)["op_ms"] / wl.e2e(base)["op_ms"] - 1
            )
    finally:
        failed += wl.close()
    return phases, metrics, failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no repro package under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.chdir(ROOT)
    # The benchmark fixes every knob itself: no inherited REPRO_* setting
    # (result cache, worker count, scale, engine variant) may leak in.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]

    rundir = RunDir(ROOT)
    try:
        ctx = Context(ROOT, args.seed, args.tiny, args.corrupt, rundir)
        wl = _workload(args.workload, ctx)
        phases, metrics, failed = _measure(wl, args, rundir)
        leftovers = leftover_processes(rundir.token)
        for pid in leftovers:
            print(f"leftover process {pid}; killing it", file=sys.stderr)
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        failed += len(leftovers)
    finally:
        rundir.cleanup()

    attempted = sum(len(p.ops) for p in phases)
    failed += sum(not op.ok for p in phases for op in p.ops)
    if not args.trace:
        metrics["success_rate"] = max(0.0, 1.0 - failed / attempted)
        metrics["peak_rss_mb"] = peak_rss_mb()
        units = E2E_UNITS
    else:
        import layers

        units = dict(layers.LAYER_METRICS, **DETAIL_UNITS)
    print(f"digest {args.workload} seed={args.seed}: {wl.digest}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
