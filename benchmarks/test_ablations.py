"""A1–A4 — ablation benches (studies beyond the paper).

A1 fetch policy, A2 register latency, A3 fetch-buffer size, A4 mapping
policy. Each regenerates a small table quantifying one design choice the
paper asserts without measurement.
"""

from repro.experiments.ablations import (
    ablation_fetch_buffer,
    ablation_fetch_policy,
    ablation_mapping_policy,
    ablation_register_latency,
    ablation_report,
)
from repro.experiments.scale import ExperimentScale

SCALE = ExperimentScale(commit_target=4000, screen_target=1000, max_mappings=16)


def test_ablation_fetch_policy(artifact):
    res = ablation_fetch_policy(scale=SCALE)
    artifact("ablation_fetch_policy", ablation_report(res, "fetch_policy"))
    # The paper's choice for multipipeline configs must not lose to a
    # blind rotation.
    assert res["l1mcount"].ipc >= res["roundrobin"].ipc * 0.9


def test_ablation_register_latency(artifact):
    res = ablation_register_latency(scale=SCALE)
    artifact("ablation_reg_latency", ablation_report(res, "reg_latency"))
    assert set(res) == {1, 2, 3}


def test_ablation_fetch_buffer(artifact):
    """Buffer sizing is a genuine tradeoff, not monotone: deeper buffers
    decouple the pipelines from the 2-seat fetch engine, but also let a
    thread fetch further past an unresolved mispredicted branch, raising
    wrong-path waste. The assertion only pins the band: no size may
    collapse throughput."""
    res = ablation_fetch_buffer(scale=SCALE)
    artifact("ablation_fetch_buffer", ablation_report(res, "fetch_buffer"))
    ipcs = [r.ipc for r in res.values()]
    assert min(ipcs) >= 0.8 * max(ipcs)


def test_ablation_mapping_policy(artifact):
    res = ablation_mapping_policy(scale=SCALE)
    artifact("ablation_mapping_policy", ablation_report(res, "mapping_policy"))
    assert res["oracle-best"].ipc >= res["heuristic"].ipc
    assert res["oracle-best"].ipc >= res["oracle-worst"].ipc
