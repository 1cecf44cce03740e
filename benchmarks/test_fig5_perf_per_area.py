"""E7 — Fig. 5: performance-per-area comparison (IPC/mm²).

Same sweep as Fig. 4 divided by the Fig. 3 configuration areas.
"""

from repro.experiments.performance import fig5_table
from repro.experiments.summary import headline_summary


def test_fig5_perf_per_area(artifact, sweep):
    text = "\n\n".join(fig5_table(sweep, cls) for cls in ("ILP", "MEM", "MIX"))
    artifact("fig5_perf_per_area", text)

    # Paper shape: hdSMT wins complexity-effectiveness.
    s = headline_summary(sweep)
    assert s.ppa_gain_vs_monolithic > 0, "hdSMT must beat M8 on IPC/mm2 (paper: +13%)"
    assert s.best_ppa_hdsmt == "2M4+2M2", (
        "the paper's best performance-per-area design is 2M4+2M2, "
        f"measured {s.best_ppa_hdsmt}"
    )
