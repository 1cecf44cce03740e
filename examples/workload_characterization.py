#!/usr/bin/env python3
"""Workload characterization: the inter-application heterogeneity that
motivates hdSMT (§1 of the paper).

Profiles all 12 synthetic SPECint2000 benchmarks — cache behaviour,
branch predictability, solo IPC across the four pipeline models — and
shows the two facts the architecture is built on:

* applications differ wildly in memory behaviour (the MEM class misses
  an order of magnitude more than the ILP class), and
* the marginal value of a wider pipeline depends on the application
  (ILP threads lose a lot on M2; memory-bound threads barely care).

A second table checks the synthetic traces themselves, read straight
from the packed columns of the window each solo run streams: distinct
PCs, code touched, conditional-branch and call fractions, the longest
run without a conditional branch, and the solo M8 L1I miss rate. It is
where a degenerate trace shows (a benchmark walking one small call
loop, or code footprints too small to miss in the I-cache).

Run:
    python examples/workload_characterization.py [--target 3000]
"""

from __future__ import annotations

import argparse

from repro import (
    BENCHMARK_NAMES,
    get_benchmark,
    profile_benchmark,
    run_simulation,
    trace_for,
)
from repro.core.simulation import default_trace_length
from repro.isa.opcodes import OP_BRANCH, OP_CALL
from repro.memory.hierarchy import MemoryParams
from repro.metrics.tables import format_table


def trace_health(name: str, length: int, l1i_miss_rate: float) -> list:
    """One row of the trace-health table, from the packed columns of
    ``trace_for(name, length)``."""
    columns = trace_for(name, length).packed.columns
    ops, pcs = columns[0], columns[6]
    n = len(ops)
    line = MemoryParams().line_bytes
    lines = {pc // line for pc in pcs}
    longest = run = 0
    for op in ops:
        run = 0 if op == OP_BRANCH else run + 1
        longest = max(longest, run)
    return [
        name,
        str(len(set(pcs))),
        f"{len(lines) * line / 1024:.1f}",
        f"{ops.count(OP_BRANCH) / n:.3f}",
        f"{ops.count(OP_CALL) / n:.3f}",
        str(longest),
        f"{l1i_miss_rate:.4f}",
    ]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--target", type=int, default=3000)
    args = parser.parse_args()

    rows = []
    health = []
    for name in sorted(
        BENCHMARK_NAMES, key=lambda n: profile_benchmark(n).misses_per_kilo_instruction
    ):
        prof = profile_benchmark(name)
        ipc = {}
        for cfg in ("M8", "1M6", "1M4", "1M2"):
            r = run_simulation(cfg, [name], (0,), commit_target=args.target)
            ipc[cfg] = r.ipc
            if cfg == "M8":
                l1i_miss_rate = r.stats["l1i_miss_rate"]
        mispredict = r.stats["branch_mispredict_rate"]
        health.append(
            trace_health(name, default_trace_length(args.target), l1i_miss_rate)
        )
        rows.append(
            [
                name,
                get_benchmark(name).workload_class,
                f"{prof.misses_per_kilo_instruction:.1f}",
                f"{mispredict:.3f}",
                f"{ipc['M8']:.2f}",
                f"{ipc['1M6']:.2f}",
                f"{ipc['1M4']:.2f}",
                f"{ipc['1M2']:.2f}",
                f"{ipc['M8'] / max(1e-9, ipc['1M2']):.1f}x",
            ]
        )
    print(
        format_table(
            ["bench", "class", "L1D MPKI", "misp", "M8", "M6", "M4", "M2", "M8/M2"],
            rows,
            title="Benchmark heterogeneity: memory behaviour and pipeline-width sensitivity",
        )
    )
    print(
        "\nReading: MEM-class threads (high MPKI) barely benefit from wide"
        "\npipelines — parking them on narrow M2 clusters and giving the"
        "\nwide pipelines to ILP threads is exactly the hdSMT mapping bet."
    )
    print()
    print(
        format_table(
            ["bench", "PCs", "code KiB", "cond br", "calls", "max no-br run",
             "M8 L1I miss"],
            health,
            title=(
                "Trace health: the solo runs' windows "
                f"({default_trace_length(args.target)} entries)"
            ),
        )
    )


if __name__ == "__main__":
    main()
