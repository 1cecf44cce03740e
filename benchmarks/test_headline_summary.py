"""E8 — §5 headline numbers: ours vs the paper's."""

from repro.experiments.summary import headline_summary, summary_report
from repro.metrics.tables import format_table


def test_headline_summary(artifact, sweep):
    s = headline_summary(sweep)
    per_cfg = format_table(
        ["config", "hmean IPC (HEUR)", "hmean IPC/mm2 (HEUR)"],
        [
            [c, f"{s.ipc_by_config[c]:.3f}", f"{s.ppa_by_config[c]:.5f}"]
            for c in s.ipc_by_config
        ],
        title="Overall means across the common workload set",
    )
    artifact("headline_summary", summary_report(s) + "\n\n" + per_cfg)

    # Sign-level reproduction of every §5 claim.
    assert s.ppa_gain_vs_monolithic > 0.05
    assert s.ppa_gain_vs_homogeneous > 0.0
    assert s.ipc_gain_monolithic_vs_hdsmt > -0.05
    for cfg, acc in s.heuristic_accuracy.items():
        assert acc > 0.7, f"{cfg} heuristic accuracy {acc:.2f}"
