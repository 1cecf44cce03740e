"""``machine_key``: configurations that run the same active pipelines
simulate the same machine.

The experiment sweep simulates one run per distinct key and relabels the
result for every other run with that key, so a key must be equal only
when ``run_simulation`` returns equal results up to the config name and
mapping labels, and must differ whenever anything the engine reads
differs.
"""

import dataclasses

import pytest

from repro.core.config import STANDARD_CONFIG_NAMES, MicroarchConfig, get_config
from repro.core.mapping import machine_key, scan_mappings
from repro.core.models import M2, M4
from repro.core.simulation import run_simulation
from repro.workloads.definitions import WORKLOADS

#: Small enough to keep the positive sweep (74 runs) to a few seconds.
TARGET = 600


def _sweep_groups():
    """Every oracle candidate of the standard sweep, grouped by
    (thread count, machine key); only groups with two or more members."""
    groups = {}
    for n in (2, 4, 6):
        for name in STANDARD_CONFIG_NAMES:
            config = get_config(name)
            if n > config.contexts_for(n):
                continue
            if config.is_monolithic:
                candidates = [(0,) * n]
            else:
                candidates = [m for _, m in scan_mappings(config, n)]
            for m in candidates:
                groups.setdefault((n, machine_key(config, m)), []).append((name, m))
    return [members for members in groups.values() if len(members) > 1]


GROUPS = _sweep_groups()


def test_sweep_has_cross_config_twins():
    """Not vacuous: the paper's configurations share machines at every
    thread count, and every twin comes from another configuration."""
    assert len(GROUPS) >= 20
    assert {len(members[0][1]) for members in GROUPS} == {2, 4, 6}
    for members in GROUPS:
        names = [name for name, _ in members]
        assert len(set(names)) == len(names)


@pytest.mark.parametrize(
    "members", GROUPS,
    ids=[f"{len(g[0][1])}T-" + "|".join(n for n, _ in g) + f"-{i}"
         for i, g in enumerate(GROUPS)],
)
def test_same_key_same_result_after_relabelling(members):
    n = len(members[0][1])
    workload = next(w for w in WORKLOADS.values() if w.num_threads == n)
    (name0, map0), *twins = members
    ref = run_simulation(name0, workload.benchmarks, map0, TARGET)
    for name, m in twins:
        got = run_simulation(name, workload.benchmarks, m, TARGET)
        assert got == dataclasses.replace(ref, config_name=name, mapping=m)


def test_empty_extra_pipeline_does_not_change_the_key():
    small, big = get_config("2M4+2M2"), get_config("3M4+2M2")
    # 3M4+2M2 leaves its third M4 (index 2) empty.
    assert machine_key(small, (0, 1, 2, 3)) == machine_key(big, (0, 1, 3, 4))
    assert machine_key(get_config("3M4"), (0, 1)) == machine_key(
        get_config("4M4"), (0, 3))


def test_name_is_not_part_of_the_key():
    m8 = get_config("M8")
    renamed = dataclasses.replace(m8, name="baseline")
    assert machine_key(m8, (0, 0, 0)) == machine_key(renamed, (0, 0, 0))


def test_threads_swapped_changes_the_key():
    config = get_config("2M4+2M2")
    assert machine_key(config, (0, 2)) != machine_key(config, (2, 0))
    assert machine_key(config, (0, 1)) != machine_key(config, (1, 0))


@pytest.mark.parametrize("params", [
    {"reg_latency": 1},
    {"rob_entries": 128},
    {"rename_registers": 192},
    {"fetch_threads": 1},
])
def test_params_change_the_key(params):
    config = get_config("2M4+2M2")
    other = dataclasses.replace(
        config, params=dataclasses.replace(config.params, **params))
    assert machine_key(config, (0, 2)) != machine_key(other, (0, 2))


def test_fetch_policy_changes_the_key():
    config = get_config("2M4+2M2")
    other = dataclasses.replace(config, fetch_policy="icount")
    assert machine_key(config, (0, 2)) != machine_key(other, (0, 2))


def test_model_index_order_changes_the_key():
    """The same two models, in swapped index order, with each thread on
    the same model: the engine visits the pipelines in a different order,
    so the machines differ."""
    wide_first = MicroarchConfig(name="M4+M2", pipelines=(M4, M2))
    narrow_first = MicroarchConfig(name="M2+M4", pipelines=(M2, M4))
    assert machine_key(wide_first, (0, 1)) != machine_key(narrow_first, (1, 0))


@pytest.mark.parametrize("mapping", [(0, 0, 0), (5,), (-1, 0)])
def test_mapping_that_does_not_fit_raises(mapping):
    with pytest.raises(ValueError):
        machine_key(get_config("2M4+2M2"), mapping)
