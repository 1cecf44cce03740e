"""Calibration tests: the paper's qualitative results must hold.

These assert the *shape* of the reproduction (who wins, in which metric,
roughly by how much) at a reduced scale. ``make bench`` regenerates the
full-scale figures and tables into ``benchmarks/output/``.
"""

import pytest

from repro.area.model import config_area
from repro.core.simulation import run_simulation, run_workload
from repro.experiments.performance import (
    clear_result_cache,
    run_performance_experiment,
)
from repro.experiments.scale import ExperimentScale
from repro.experiments.summary import headline_summary


@pytest.fixture(scope="module")
def sweep():
    """One shared mini-sweep across classes (module-scoped for speed)."""
    clear_result_cache()
    scale = ExperimentScale(commit_target=2000, screen_target=600, max_mappings=10)
    return run_performance_experiment(
        workload_names=["2W1", "2W4", "2W7", "4W1", "4W6"], scale=scale
    )


def test_monolithic_wins_raw_performance(sweep):
    s = headline_summary(sweep)
    assert s.ipc_gain_monolithic_vs_hdsmt > 0, (
        "the paper's M8 keeps a raw-IPC edge over hdSMT"
    )


def test_hdsmt_wins_performance_per_area(sweep):
    s = headline_summary(sweep)
    assert s.ppa_gain_vs_monolithic > 0.05, (
        "hdSMT must clearly win IPC/mm2 (paper: +13%)"
    )


def test_hdsmt_ppa_beats_homogeneous(sweep):
    s = headline_summary(sweep)
    assert s.ppa_gain_vs_homogeneous > 0.0, "paper: +14% over homogeneous"


def test_heuristic_accuracy_high(sweep):
    s = headline_summary(sweep)
    for config, acc in s.heuristic_accuracy.items():
        assert acc > 0.70, f"{config}: heuristic accuracy {acc:.2f} too low"


def test_best_ppa_config_is_smallest_heterogeneous(sweep):
    """The paper's best performance-per-area design is 2M4+2M2."""
    s = headline_summary(sweep)
    assert s.best_ppa_hdsmt == "2M4+2M2"


def test_area_ratios_drive_the_ppa_story():
    """2M4+2M2 must deliver >= ~73% of M8's IPC to win PPA (it has 73%
    of the area); verify the IPC ratio clears that bar on an ILP pair."""
    m8 = run_simulation("M8", ["eon", "gcc"], (0, 0), commit_target=2500)
    hd = run_workload("2M4+2M2", ["eon", "gcc"], commit_target=2500)
    area_ratio = config_area("2M4+2M2") / config_area("M8")
    assert hd.ipc / m8.ipc > area_ratio


def test_worst_mapping_clearly_hurts(sweep):
    """BEST vs WORST spread demonstrates the mapping policy matters
    (a central claim of the paper)."""
    spreads = []
    for config in ("2M4+2M2", "3M4+2M2", "1M6+2M4+2M2"):
        per = sweep.get(config, {})
        for wr in per.values():
            if not wr.degenerate:
                spreads.append(wr.best.ipc / max(1e-9, wr.worst.ipc))
    assert spreads and max(spreads) > 1.05
