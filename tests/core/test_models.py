"""Unit tests: pipeline models — must match Fig. 2(a) exactly."""

import pytest

from repro.core.models import M2, M4, M6, M8, MODELS_BY_NAME, PipelineModel, get_model


FIG_2A = {
    # name: (contexts, width, threads/cycle, queues, int, fp, ldst)
    "M8": (4, 8, 2, 64, 6, 3, 4),
    "M6": (2, 6, 2, 32, 4, 2, 2),
    "M4": (2, 4, 2, 32, 3, 2, 2),
    "M2": (1, 2, 1, 16, 1, 1, 1),
}


@pytest.mark.parametrize("name", list(FIG_2A))
def test_fig_2a_resources(name):
    ctx, width, tpc, q, i, f, ls = FIG_2A[name]
    m = get_model(name)
    assert m.contexts == ctx
    assert m.width == width
    assert m.threads_per_cycle == tpc
    assert m.iq_entries == m.fq_entries == m.lq_entries == q
    assert m.int_units == i
    assert m.fp_units == f
    assert m.ldst_units == ls


def test_fetch_buffer_sizes_match_section_4():
    assert M6.fetch_buffer == 32
    assert M4.fetch_buffer == 32
    assert M2.fetch_buffer == 16


def test_registry():
    assert set(MODELS_BY_NAME) == {"M8", "M6", "M4", "M2"}
    with pytest.raises(KeyError):
        get_model("M5")


def test_totals():
    assert M8.total_queue_entries == 192


def test_validation():
    with pytest.raises(ValueError):
        PipelineModel("bad", 0, 4, 2, 32, 32, 32, 3, 2, 2, 32)
    with pytest.raises(ValueError):
        PipelineModel("bad", 1, 4, 2, 32, 32, 32, 3, 2, 2, 32)  # tpc > contexts
