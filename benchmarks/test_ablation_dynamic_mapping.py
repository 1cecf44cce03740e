"""A5 — dynamic vs static mapping under a program phase change.

The paper's §7 future work, measured: a thread that turns memory-bound
mid-run is demoted from the dedicated wide pipeline by the online
heuristic; the static mapping keeps serving the stale profile.
"""

from repro.core.config import get_config
from repro.core.dynamic import run_dynamic
from repro.core.engine import Processor
from repro.metrics.tables import format_table
from repro.trace.composite import composite_trace
from repro.trace.stream import trace_for

TARGET = 8_000


def run_pair():
    config = get_config("2M4+2M2")
    length = 3 * TARGET
    traces = [
        composite_trace("gzip", "mcf", length, switch_at=2_500),
        trace_for("bzip2", length),
        trace_for("gap", length),
    ]
    static_map = (0, 1, 1)

    proc = Processor(config, traces, static_map, TARGET)
    proc.warm()
    proc.mem.reset_stats()
    proc.run()
    static_ipc = proc.aggregate_ipc()

    dyn = run_dynamic(
        config,
        ["changing", "steady1", "steady2"],
        traces=traces,
        initial_mapping=static_map,
        commit_target=TARGET,
        epoch_cycles=800,
        trace_length=length,
    )
    return static_ipc, dyn


def test_ablation_dynamic_mapping(artifact):
    static_ipc, dyn = run_pair()
    text = format_table(
        ["policy", "IPC", "migrations"],
        [
            ["static (stale profile)", f"{static_ipc:.3f}", 0],
            ["dynamic (epoch heuristic)", f"{dyn.result.ipc:.3f}", dyn.migrations],
        ],
        title="A5 — dynamic remapping under a phase change (gzip->mcf thread)",
    )
    artifact("ablation_dynamic_mapping", text)
    assert dyn.migrations >= 1, "the phase change must trigger a remap"
