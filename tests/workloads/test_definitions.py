"""Unit tests: workload tables (Tables 2 and 3)."""

import pytest

from repro.trace.benchmarks import BENCHMARKS
from repro.workloads.definitions import (
    FOUR_THREAD,
    SIX_THREAD,
    TWO_THREAD,
    WORKLOAD_NAMES,
    WORKLOADS,
    Workload,
    get_workload,
    workloads_by,
)


def test_counts_match_tables():
    assert len(TWO_THREAD) == 9
    assert len(FOUR_THREAD) == 9
    assert len(SIX_THREAD) == 4
    assert len(WORKLOADS) == 22


def test_exact_table2_contents():
    assert get_workload("2W1").benchmarks == ("eon", "gcc")
    assert get_workload("2W4").benchmarks == ("mcf", "twolf")
    assert get_workload("4W6").benchmarks == ("gzip", "twolf", "bzip2", "mcf")
    assert get_workload("4W9").benchmarks == ("vpr", "twolf", "gap", "vortex")


def test_exact_table3_contents():
    assert get_workload("6W1").benchmarks == ("gzip", "gcc", "crafty", "eon", "gap", "bzip2")
    assert get_workload("6W4").benchmarks == (
        "vpr",
        "mcf",
        "crafty",
        "perlbmk",
        "vortex",
        "twolf",
    )


def test_classes_match_tables():
    expected = {
        "2W1": "ILP", "2W2": "ILP", "2W3": "ILP",
        "2W4": "MEM", "2W5": "MEM", "2W6": "MEM",
        "2W7": "MIX", "2W8": "MIX", "2W9": "MIX",
        "4W1": "ILP", "4W2": "ILP", "4W3": "ILP",
        "4W4": "MEM", "4W5": "MEM",
        "4W6": "MIX", "4W7": "MIX", "4W8": "MIX", "4W9": "MIX",
        "6W1": "ILP", "6W2": "ILP", "6W3": "MIX", "6W4": "MIX",
    }
    for name, cls in expected.items():
        assert get_workload(name).workload_class == cls, name


def test_no_six_thread_mem_workloads():
    """§4: MEM workloads are only feasible for 2 and 4 threads."""
    assert not workloads_by(num_threads=6, workload_class="MEM")


def test_all_benchmarks_known():
    for w in WORKLOADS.values():
        for b in w.benchmarks:
            assert b in BENCHMARKS


def test_sizes_consistent():
    for w in WORKLOADS.values():
        assert w.num_threads == int(w.name[0])


def test_filters():
    assert {w.name for w in workloads_by(num_threads=2)} == set(TWO_THREAD)
    mems = workloads_by(workload_class="MEM")
    assert {w.name for w in mems} == {"2W4", "2W5", "2W6", "4W4", "4W5"}


def test_get_workload_error():
    with pytest.raises(KeyError):
        get_workload("9W9")


def test_validation():
    with pytest.raises(ValueError):
        Workload("xx", ("nosuch",), "ILP")
    with pytest.raises(ValueError):
        Workload("xx", ("eon",), "WEIRD")


def test_str():
    assert str(get_workload("2W1")) == "2W1(eon,gcc)"


#: the benchmark classes each workload class is built from (§4)
_MEMBER_CLASSES = {"ILP": {"ILP"}, "MEM": {"MEM"}, "MIX": {"ILP", "MEM"}}


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_class_follows_its_benchmarks(name):
    """An ILP workload runs only high-ILP benchmarks, a MEM workload only
    memory-bound ones and a MIX workload both; no benchmark runs twice."""
    w = get_workload(name)
    members = {BENCHMARKS[b].workload_class for b in w.benchmarks}
    assert members == _MEMBER_CLASSES[w.workload_class]
    assert len(set(w.benchmarks)) == w.num_threads
