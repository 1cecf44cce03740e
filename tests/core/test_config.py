"""Unit tests: microarchitecture configurations."""

import pytest

from repro.core.config import (
    STANDARD_CONFIG_NAMES,
    STANDARD_CONFIGS,
    get_config,
    parse_config_name,
)


def test_standard_set_matches_fig3():
    assert set(STANDARD_CONFIG_NAMES) == {
        "M8",
        "3M4",
        "4M4",
        "2M4+2M2",
        "3M4+2M2",
        "1M6+2M4+2M2",
    }


def test_parse_config_name():
    pipes = parse_config_name("2M4+2M2")
    assert [p.name for p in pipes] == ["M4", "M4", "M2", "M2"]
    pipes = parse_config_name("1M6+2M4+2M2")
    assert [p.name for p in pipes] == ["M6", "M4", "M4", "M2", "M2"]
    assert [p.name for p in parse_config_name("M8")] == ["M8"]


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_config_name("2X4")
    with pytest.raises(KeyError):
        parse_config_name("2M5")
    with pytest.raises(ValueError):
        parse_config_name("0M4")


def test_m8_baseline_flags():
    m8 = get_config("M8")
    assert m8.is_monolithic
    assert m8.fetch_policy == "flush"
    assert m8.params.reg_latency == 1
    assert m8.allow_context_overcommit


def test_multipipeline_flags():
    for name in ("3M4", "4M4", "2M4+2M2", "3M4+2M2", "1M6+2M4+2M2"):
        cfg = get_config(name)
        assert not cfg.is_monolithic
        assert cfg.fetch_policy == "l1mcount"
        assert cfg.params.reg_latency == 2
        assert cfg.params.extra_reg_cycles == 1


def test_context_overcommit_only_for_monolithic_m8():
    """§3: the baseline runs 6-thread workloads on 4 contexts for free."""
    m8 = get_config("M8")
    assert m8.contexts_for(6) == 6
    assert m8.contexts_for(2) == 4
    hd = get_config("2M4+2M2")
    assert hd.contexts_for(6) == 6  # 2+2+1+1 real contexts
    assert hd.contexts_for(8) == 6


def test_total_width_and_contexts():
    cfg = get_config("1M6+2M4+2M2")
    assert cfg.total_contexts == 2 + 2 + 2 + 1 + 1
    assert cfg.total_width == 6 + 4 + 4 + 2 + 2


def test_pipeline_counts():
    assert get_config("2M4+2M2").pipeline_counts() == {"M4": 2, "M2": 2}


def test_synthesized_config():
    cfg = get_config("1M6+1M2")
    assert [p.name for p in cfg.pipelines] == ["M6", "M2"]
    assert cfg.params.reg_latency == 2


def test_describe_smoke():
    assert "fetch=flush" in get_config("M8").describe()


def test_standard_configs_frozen_identity():
    assert get_config("3M4") is STANDARD_CONFIGS["3M4"]


def test_invalid_fetch_policy_rejected():
    from dataclasses import replace

    with pytest.raises(ValueError):
        replace(get_config("3M4"), fetch_policy="bogus")


@pytest.mark.parametrize("name", STANDARD_CONFIG_NAMES)
def test_standard_config_round_trips_its_name(name):
    """Each Fig. 3 configuration is exactly the pipelines its name spells,
    widest first, however the terms are ordered or counted."""
    cfg = get_config(name)
    assert cfg.pipelines == parse_config_name(name)
    widths = [p.width for p in cfg.pipelines]
    assert widths == sorted(widths, reverse=True)
    spelled = "+".join(f"{n}{m}" for m, n in cfg.pipeline_counts().items())
    assert parse_config_name(spelled) == cfg.pipelines
    reordered = "+".join(reversed(name.split("+")))
    assert parse_config_name(reordered) == cfg.pipelines
    assert all(f"{n}x{m}" in cfg.describe() for m, n in cfg.pipeline_counts().items())
