"""``single_sim``: repeated ``run_simulation`` calls, one process.

Workload 4W6 (gzip twolf bzip2 mcf) with the heuristic mapping, rotating
through M8, 2M4+2M2 and 1M6+2M4+2M2 so host drift hits the three configs
alike. Traces and warm snapshots are memoized in set-up, so an operation
is a warm restore plus the cycle loop: no runner, cache or service. Only
M8 runs the single-pipeline (``mono``) stages.

The traces are the paper's fixed draw (``seed=0``); the benchmark seed
only picks the config the rotation starts with. Another trace draw
changes the simulated machine's work by up to 1.7x (M8 needs 9,082 to
15,794 cycles to reach the commit target on draws 1 to 15), so runs with
different seeds would not measure the same thing.
"""

from __future__ import annotations

import hashlib
import json
import sys
import traceback
from contextlib import nullcontext
from time import perf_counter

from common import Op, Phase, geomean, median, percentile, run_loop
from layers import SUFFIXES
from repro.core.config import get_config
from repro.core.engine.warm import clear_warm_cache
from repro.core.mapping import heuristic_mapping
from repro.core.simulation import run_simulation
from repro.trace.profiling import clear_profile_cache, profile_benchmark
from repro.trace.stream import clear_trace_cache
from repro.workloads.definitions import get_workload

CONFIGS = tuple(SUFFIXES)


def _identity(result) -> list:
    """What every repetition must reproduce exactly."""
    return [result.cycles, list(result.committed), sorted(result.stats.items())]


class SingleSim:
    name = "single_sim"
    in_process = True

    def __init__(self, ctx) -> None:
        self.ctx = ctx
        self.benchmarks = get_workload("4W6").benchmarks
        self.target = 500 if ctx.tiny else 8000
        self.mappings: dict = {}
        self.refs: dict = {}

    def _setup_once(self) -> None:
        clear_trace_cache()
        clear_warm_cache()
        clear_profile_cache()
        for name in CONFIGS:
            config = get_config(name)
            if config.is_monolithic:
                mapping = (0,) * len(self.benchmarks)
            else:
                mapping = heuristic_mapping(config, [
                    profile_benchmark(b).misses_per_kilo_instruction
                    for b in self.benchmarks
                ])
            result = run_simulation(config, self.benchmarks, mapping, self.target)
            self.mappings[name] = mapping
            self.refs[name] = _identity(result)
        if self.ctx.corrupt:
            self.refs[CONFIGS[0]][0] += 1

    def setup(self) -> float:
        times = []
        for _ in range(3):
            t0 = perf_counter()
            self._setup_once()
            times.append(perf_counter() - t0)
        return median(times)

    @property
    def digest(self) -> str:
        return hashlib.sha256(json.dumps(self.refs, sort_keys=True).encode()).hexdigest()

    def measure(self, budget: float, rec=None) -> Phase:
        start = self.ctx.seed % len(CONFIGS)

        def body(i: int) -> Op:
            name = CONFIGS[(start + i) % len(CONFIGS)]
            with rec.span("op", op=i) if rec else nullcontext():
                t0 = perf_counter()
                try:
                    result = run_simulation(name, self.benchmarks, self.mappings[name],
                                            self.target)
                except Exception:  # noqa: BLE001 - counted as a failed operation
                    traceback.print_exc(file=sys.stderr)
                    return Op(name, perf_counter() - t0, False)
                dt = perf_counter() - t0
            return Op(name, dt, _identity(result) == self.refs[name], result.cycles)

        phase = run_loop(budget, len(CONFIGS), body)
        useful = sum(op.cycles for op in phase.ops)
        return phase._replace(useful_cycles=useful)

    def _per_config(self, phase: Phase):
        return {name: [op for op in phase.ops if op.kind == name and op.ok]
                for name in CONFIGS}

    def e2e(self, phase: Phase) -> dict:
        """The fast tenth of each config's calls: neighbours on the host
        slow whole stretches of a run by up to 1.5x, and the tenth
        percentile of some 30 calls per config stays in the quiet ones.

        A config simulates the same cycles on every call (the output check
        pins them), so ``cycles_per_s`` is not a second measurement: it is
        the same per-config call time as ``op_ms``, stated as cycles per
        host second."""
        per = self._per_config(phase)
        fast = {name: percentile([o.seconds for o in ops], 10)
                for name, ops in per.items()}
        return {
            "op_ms": 1000 * geomean(list(fast.values())),
            "cycles_per_s": geomean([ops[0].cycles / fast[name]
                                     for name, ops in per.items() if ops]),
        }

    def details(self, phase: Phase) -> dict:
        per = self._per_config(phase)
        return {f"cycles_per_s.{SUFFIXES[name]}":
                median([o.cycles / o.seconds for o in ops])
                for name, ops in per.items()}

    def close(self) -> int:
        return 0
