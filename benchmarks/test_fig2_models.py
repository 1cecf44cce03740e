"""E1 — Fig. 2(a): pipeline-model resource table."""

from repro.core.models import M2, M4, M6, M8
from repro.metrics.tables import format_table


def fig2a_text() -> str:
    rows = []
    for label, get in (
        ("Hardware Contexts", lambda m: m.contexts),
        ("Max. Instr./cycle", lambda m: m.width),
        ("Max. Threads/cycle", lambda m: m.threads_per_cycle),
        ("Queues (IQ/FQ/LQ)", lambda m: m.iq_entries),
        ("Integer Func. Units", lambda m: m.int_units),
        ("FP Func. Units", lambda m: m.fp_units),
        ("LD/ST Units", lambda m: m.ldst_units),
    ):
        rows.append([label] + [get(m) for m in (M8, M6, M4, M2)])
    return format_table(
        ["Resource", "M8", "M6", "M4", "M2"],
        rows,
        title="Fig. 2(a) — pipeline model resources",
    )


def test_fig2a_resources(artifact):
    text = fig2a_text()
    artifact("fig2a_models", text)
    # The table must carry the paper's exact values.
    assert "8" in text and "64" in text and "16" in text
