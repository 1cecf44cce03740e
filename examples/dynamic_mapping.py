#!/usr/bin/env python3
"""Dynamic thread-to-pipeline remapping — the paper's future work (§7).

"Raw performance results also point out that, in future hdSMT
implementations, this mapping should probably be made dynamically in
order to better adapt to the dynamic changes in program behaviour
during execution."

This example builds that scenario: one thread behaves like gzip and then
turns into mcf mid-run (a composite trace). A static profile-based
mapping keeps trusting the stale profile; the dynamic runner re-ranks
threads every epoch by their *observed* data-cache misses, drains the
movers, and remaps.

Run:
    python examples/dynamic_mapping.py [--epoch 800] [--switch 3000]
"""

from __future__ import annotations

import argparse

from repro import get_config
from repro.core.dynamic import run_dynamic
from repro.core.mapping import describe_mapping
from repro.core.simulation import run_simulation
from repro.trace.composite import composite_trace
from repro.trace.stream import trace_for


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", default="2M4+2M2")
    parser.add_argument("--target", type=int, default=10_000)
    parser.add_argument("--epoch", type=int, default=800)
    parser.add_argument("--switch", type=int, default=3_000)
    args = parser.parse_args()

    config = get_config(args.config)
    length = 3 * args.target
    names = ["gzip->mcf", "bzip2", "gap"]
    traces = [
        composite_trace("gzip", "mcf", length, switch_at=args.switch),
        trace_for("bzip2", length),
        trace_for("gap", length),
    ]
    # The static mapping a profile of the gzip phase would produce: the
    # (seemingly well-behaved) changing thread gets the dedicated M4.
    static_map = (0, 1, 1)

    print(f"Config {config.describe()}")
    print(f"Threads: {', '.join(names)} (thread 0 changes phase at {args.switch})\n")

    static = run_simulation(
        config, ["gzip", "bzip2", "gap"], static_map,
        commit_target=args.target, trace_length=length,
    )
    # Re-run the *actual* composite workload under the frozen mapping.
    from repro.core.engine import Processor

    proc = Processor(config, traces, static_map, args.target)
    proc.warm()
    proc.mem.reset_stats()
    proc.branch_unit.reset_stats()
    proc.run()
    static_ipc = proc.aggregate_ipc()

    dyn = run_dynamic(
        config, names, traces=traces, initial_mapping=static_map,
        commit_target=args.target, epoch_cycles=args.epoch,
        trace_length=length,
    )

    print(f"static mapping : {describe_mapping(config, static_map, names)}")
    print(f"  IPC = {static_ipc:.3f}")
    print(f"dynamic mapping: {describe_mapping(config, dyn.result.mapping, names)}")
    print(
        f"  IPC = {dyn.result.ipc:.3f}  "
        f"(epochs={dyn.epochs}, remaps={dyn.remaps}, migrations={dyn.migrations})"
    )
    print("\nmapping history:")
    for i, m in enumerate(dyn.mapping_history):
        print(f"  {i}: {describe_mapping(config, m, names)}")
    gain = 100 * (dyn.result.ipc / static_ipc - 1)
    print(f"\ndynamic vs static: {gain:+.1f}% IPC")


if __name__ == "__main__":
    main()
