"""Unit tests: experiment scaling knobs."""

import pytest

from repro.experiments.scale import ExperimentScale, default_scale


def test_defaults():
    s = ExperimentScale()
    assert s.commit_target > s.screen_target > 0
    assert s.max_mappings > 0


def test_scaled():
    s = ExperimentScale(commit_target=8000, screen_target=1500).scaled(0.5)
    assert s.commit_target == 4000
    assert s.screen_target == 750


def test_scaled_floor():
    s = ExperimentScale().scaled(0.0001)
    assert s.commit_target >= 500
    assert s.screen_target >= 300


def test_scaled_validation():
    with pytest.raises(ValueError):
        ExperimentScale().scaled(0)


def test_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_SIM_SCALE", "2")
    s = default_scale()
    assert s.commit_target == ExperimentScale().commit_target * 2
    monkeypatch.setenv("REPRO_MAX_MAPPINGS", "5")
    assert default_scale().max_mappings == 5


def test_cache_key_distinguishes():
    a = ExperimentScale(commit_target=1000)
    b = ExperimentScale(commit_target=2000)
    assert a.cache_key != b.cache_key
