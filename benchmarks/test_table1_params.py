"""E4 — Table 1: simulation parameters."""

from repro.core.config import BaselineParams
from repro.metrics.tables import format_table


def table1_text() -> str:
    p = BaselineParams()
    m = p.memory
    rows = [
        ["Branch Predictor", "perceptron (4K local, 256 perceps)"],
        ["BTB", "256 entries, 4-way associative"],
        ["RAS*", "256 entries"],
        ["ROB Size*", f"{p.rob_entries} entries"],
        ["Rename Registers", f"{p.rename_registers} regs."],
        # The paper's 8 banks per cache are quoted as text: no bank
        # conflict is modelled, so no parameter holds a bank count.
        ["L1 I-Cache", f"{m.l1i_size // 1024}KB, {m.l1i_ways}-way, 8 banks"],
        ["L1 D-Cache", f"{m.l1d_size // 1024}KB, {m.l1d_ways}-way, 8 banks"],
        ["L1 lat./misspenalty", f"{m.l1_latency}/{m.l1_miss_penalty} cyc."],
        ["L2 Cache", f"{m.l2_size // 1024}KB, {m.l2_ways}-way, 8 banks"],
        ["L2 latency", f"{m.l2_latency} cyc."],
        ["Main Memory Latency", f"{m.memory_latency} cyc."],
        [
            "I-TLB/D-TLB/TLB missp.",
            f"{m.itlb_entries} ent. / {m.dtlb_entries} ent. / {m.tlb_miss_penalty} cyc.",
        ],
    ]
    return format_table(
        ["Parameter", "Value (* replicated per thread)"],
        rows,
        title="Table 1 — simulation parameters",
    )


def test_table1_params(artifact):
    text = table1_text()
    artifact("table1_params", text)
    for expected in ("64KB", "512KB", "3/22", "250 cyc.", "48 ent. / 128 ent. / 300 cyc."):
        assert expected in text
