"""E2 — Fig. 2(b): per-model area estimation, stacked by stage."""

from repro.area.model import pipeline_model_area, stage_breakdown
from repro.area.structures import STAGE_NAMES
from repro.metrics.tables import format_table


def fig2b_text() -> str:
    rows = []
    for name in ("M8", "M6", "M4", "M2"):
        bd = stage_breakdown(name)
        rows.append(
            [name]
            + [f"{bd[s]:.1f}" for s in STAGE_NAMES]
            + [f"{pipeline_model_area(name):.1f}"]
        )
    return format_table(
        ["model"] + list(STAGE_NAMES) + ["total_mm2"],
        rows,
        title="Fig. 2(b) — area estimation per pipeline model (mm2 @ 0.18um)",
    )


def test_fig2b_model_areas(artifact):
    text = fig2b_text()
    artifact("fig2b_model_areas", text)
    # Shape facts from the paper's chart: M8 tallest (~165 mm2), EX core
    # the dominant segment, M6/M4/M2 fetch stages 20% over M8's.
    assert pipeline_model_area("M8") > pipeline_model_area("M6")
    bd8 = stage_breakdown("M8")
    assert bd8["EX"] == max(v for k, v in bd8.items() if k != "IF" or True)
