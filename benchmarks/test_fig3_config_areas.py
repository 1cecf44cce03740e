"""E3 — Fig. 3: area of the six evaluated microarchitectures."""

from repro.area.model import area_report, config_area
from repro.core.config import STANDARD_CONFIG_NAMES


def test_fig3_config_areas(artifact):
    text = area_report(STANDARD_CONFIG_NAMES)
    artifact("fig3_config_areas", text)
    # Paper's annotations.
    base = config_area("M8")
    assert abs((config_area("3M4") - base) / base * 100 - (-17.0)) < 1.5
    assert abs((config_area("4M4") - base) / base * 100 - (+10.14)) < 1.5
    assert abs((config_area("2M4+2M2") - base) / base * 100 - (-27.0)) < 1.5
