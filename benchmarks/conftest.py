"""Shared fixtures for the figure/table regeneration harness.

Every bench writes its regenerated artifact both to stdout and to
``benchmarks/output/<name>.txt`` (git-ignored: rerun the harness to put a
full run's outputs next to the paper's numbers).

The harness is **opt-in** (tier-1 `pytest` collects only ``tests/``, see
pyproject.toml): every item here carries the ``bench`` marker and is
skipped unless ``RUN_BENCH=1`` is set — ``make bench`` does both, or run
``RUN_BENCH=1 pytest benchmarks -q`` directly.

Scale: `REPRO_SIM_SCALE` (float) multiplies the simulation windows; the
default is sized so the full harness regenerates every figure in minutes
on a laptop. The Fig. 4 / Fig. 5 / headline benches share one sweep via a
session-scoped cache. `REPRO_WORKERS` sizes the BatchRunner pool that
fans the oracle mapping screens out over processes.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.experiments.performance import run_performance_experiment
from repro.experiments.scale import ExperimentScale
from repro.settings import Settings

OUTPUT_DIR = Path(__file__).parent / "output"


def pytest_collection_modifyitems(config, items):
    """Mark every benchmark `bench` and gate it behind RUN_BENCH=1."""
    bench = pytest.mark.bench
    enabled = bool(os.environ.get("RUN_BENCH"))
    skip = pytest.mark.skip(
        reason="benchmarks are opt-in: run via `make bench` or RUN_BENCH=1"
    )
    for item in items:
        item.add_marker(bench)
        if not enabled:
            item.add_marker(skip)


def bench_scale() -> ExperimentScale:
    base = ExperimentScale(commit_target=6000, screen_target=1200, max_mappings=24)
    factor = Settings.from_env().sim_scale
    if factor is not None:
        base = base.scaled(factor)
    return base


@pytest.fixture(scope="session")
def scale() -> ExperimentScale:
    return bench_scale()


@pytest.fixture(scope="session")
def sweep(scale):
    """The full Figs. 4/5 sweep: every configuration x every workload."""
    return run_performance_experiment(scale=scale, progress=True)


@pytest.fixture()
def artifact():
    """Writer: artifact('fig4_ilp', text) -> prints + saves the artifact."""
    OUTPUT_DIR.mkdir(exist_ok=True)

    def write(name: str, text: str) -> None:
        path = OUTPUT_DIR / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n{text}\n[saved to {path}]")

    return write
