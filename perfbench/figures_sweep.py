"""``figures_sweep``: what ``repro figures --scale 0.05 -j 2`` does.

One operation is ``run_performance_experiment`` over every (config,
workload) pair that fits (132 of them) in exact mode, the CLI default,
on a fresh 2-worker ``BatchRunner`` with no result cache. It starts from
cleared process memos (trace, warm, profile, experiment result) and an
empty trace store, so each operation pays what a fresh ``repro figures``
pays: trace generation and packing, warm compute, prepack, planning,
bundle dispatch and the engine.

The seed permutes the order of configs and workloads. Results do not
depend on the order; how runs are grouped into bundles does.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import traceback
from contextlib import nullcontext
from time import perf_counter

import repro.experiments.performance as performance
from common import Op, Phase, median, run_loop
from repro.core.config import STANDARD_CONFIG_NAMES
from repro.core.engine.warm import clear_warm_cache
from repro.experiments.scale import ExperimentScale
from repro.runner import BatchRunner
from repro.trace.profiling import clear_profile_cache
from repro.trace.stream import clear_trace_cache
from repro.workloads.definitions import WORKLOADS

SCALE = 0.05
WORKERS = 2


def _row(result) -> list:
    return [list(result.mapping), result.cycles, list(result.committed),
            sorted(result.stats.items())]


class FiguresSweep:
    name = "figures_sweep"
    in_process = True

    def __init__(self, ctx) -> None:
        self.ctx = ctx
        self.scale = ExperimentScale().scaled(SCALE)
        configs = list(STANDARD_CONFIG_NAMES)
        workloads = list(WORKLOADS)
        if ctx.tiny:
            configs = ["M8", "2M4+2M2"]
            workloads = ["2W4", "4W6"]
        rng = random.Random(ctx.seed)
        rng.shuffle(configs)
        rng.shuffle(workloads)
        self.configs = configs
        self.workloads = workloads
        self.reference = None

    def setup(self) -> float:
        """A fresh interpreter importing the sweep's modules: the fixed
        start-up a ``repro figures`` process pays before its sweep (five
        times, as one import is short enough for page-cache noise)."""
        env = dict(os.environ, PYTHONPATH=os.path.join(self.ctx.root, "src"))
        code = "import repro.cli, repro.experiments.performance, repro.runner"
        times = []
        for _ in range(5):
            t0 = perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True,
                           cwd=self.ctx.root)
            times.append(perf_counter() - t0)
        return median(times)

    @property
    def digest(self) -> str:
        return hashlib.sha256(
            json.dumps(self.reference, sort_keys=True).encode()
        ).hexdigest() if self.reference is not None else "none"

    def _sweep(self):
        clear_trace_cache()
        clear_warm_cache()
        clear_profile_cache()
        performance.clear_result_cache()
        with BatchRunner(workers=WORKERS, cache_dir=None) as runner:
            return performance.run_performance_experiment(
                config_names=self.configs, workload_names=self.workloads,
                scale=self.scale, runner=runner,
            )

    def measure(self, budget: float, rec=None) -> Phase:
        useful = 0

        def body(i: int) -> Op:
            nonlocal useful
            with rec.span("op", op=i) if rec else nullcontext():
                t0 = perf_counter()
                try:
                    results = self._sweep()
                except Exception:  # noqa: BLE001 - counted as a failed operation
                    traceback.print_exc(file=sys.stderr)
                    return Op("sweep", perf_counter() - t0, False)
                dt = perf_counter() - t0
            table = {}
            cycles = 0
            for cn, per in results.items():
                for wn, wr in per.items():
                    table[f"{cn}/{wn}"] = [_row(wr.best), _row(wr.heur),
                                           _row(wr.worst), wr.mappings_screened]
                    unique = {r.mapping: r.cycles for r in (wr.best, wr.heur, wr.worst)}
                    cycles += sum(unique.values())
            if self.ctx.corrupt and i > 0:
                table.pop(next(iter(table)))
            if self.reference is None:
                self.reference = table
            ok = table == self.reference and (self.ctx.tiny or len(table) == 132)
            useful += cycles
            return Op("sweep", dt, ok, cycles)

        phase = run_loop(budget, 2 if self.ctx.corrupt else 1, body)
        return phase._replace(useful_cycles=useful)

    def e2e(self, phase: Phase) -> dict:
        """The fastest of the run's sweeps (about three): one sweep slowed
        by neighbours on the host must not set the run's number."""
        ok = [op for op in phase.ops if op.ok]
        return {
            "op_ms": 1000 * min((op.seconds for op in ok), default=0.0),
            "cycles_per_s": max((op.cycles / op.seconds for op in ok), default=0.0),
        }

    def details(self, phase: Phase) -> dict:
        return {"sweep_s": median([op.seconds for op in phase.ops if op.ok])}

    def close(self) -> int:
        return 0
