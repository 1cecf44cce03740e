"""E5 — Tables 2 and 3: workload definitions."""

from repro.metrics.tables import format_table
from repro.workloads.definitions import WORKLOADS


def tables23_text() -> str:
    rows = [
        [w.name, ", ".join(w.benchmarks), w.workload_class[0] if w.workload_class != "MIX" else "X"]
        for w in WORKLOADS.values()
    ]
    return format_table(
        ["Wld", "Benchmarks", "T"],
        rows,
        title="Tables 2 & 3 — workloads (I=ILP, M=MEM, X=MIX)",
    )


def test_tables23_workloads(artifact):
    text = tables23_text()
    artifact("tables23_workloads", text)
    assert "2W4" in text and "mcf, twolf" in text
    assert "6W4" in text
    assert text.count("\n") == 22 + 2  # 22 workloads + header + rule
