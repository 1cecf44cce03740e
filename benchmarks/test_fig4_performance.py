"""E6 — Fig. 4: raw-performance comparison (IPC).

Regenerates Fig. 4(a/b/c): for every workload class, the harmonic-mean
IPC per workload size and microarchitecture under the BEST / HEUR / WORST
mapping policies.
"""

from repro.experiments.performance import fig4_table
from repro.experiments.summary import headline_summary


def test_fig4_performance(artifact, sweep):
    text = "\n\n".join(fig4_table(sweep, cls) for cls in ("ILP", "MEM", "MIX"))
    artifact("fig4_performance", text)

    # Paper shape: the monolithic baseline keeps a raw-IPC edge overall.
    s = headline_summary(sweep)
    assert s.ipc_gain_monolithic_vs_hdsmt > -0.05, (
        "M8 should be at least on par with hdSMT on raw IPC "
        f"(measured hdSMT edge {-s.ipc_gain_monolithic_vs_hdsmt:+.1%})"
    )
    # BEST >= HEUR >= WORST everywhere.
    for per in sweep.values():
        for wr in per.values():
            assert wr.best.ipc >= wr.heur.ipc >= wr.worst.ipc
