"""Every configuration knob moves a number.

A field of :class:`PipelineModel`, :class:`BaselineParams` or
:class:`MemoryParams`, and ``MicroarchConfig.fetch_policy``, is live when
doubling it (or, failing that, setting it to 1; or, for the fetch
policy, picking another policy) changes a simulated result — cycles,
commits or any stat — in one of three small scenarios, or an area
number. A field that moves nothing is dead weight in every config-object
key; delete it and keep its key bytes in ``RETIRED_KEY_TEXT``.

Label fields (``name``) only name a configuration and are exempt.
``allow_context_overcommit`` is a mapping constraint, so it must move
``contexts_for`` instead. The fields the walk does not perturb directly
(``pipelines``, ``params``, ``memory``) are the containers of the ones
it does.
"""

from dataclasses import fields, replace
from functools import lru_cache

import pytest

from repro.area.model import config_area, stage_breakdown
from repro.core.config import BaselineParams, MicroarchConfig, get_config
from repro.core.models import PipelineModel
from repro.core.simulation import run_simulation
from repro.memory.hierarchy import MemoryParams
from repro.workloads.definitions import WORKLOADS

#: (configuration, workload, mapping). The third is the only one where
#: a single FP queue entry or FP unit binds.
SCENARIOS = (
    ("M8", "4W6", (0, 0, 0, 0)),
    ("2M4+2M2", "4W6", (0, 1, 2, 3)),
    ("1M6+2M4+2M2", "6W1", (0, 0, 1, 2, 3, 4)),
)
TARGET = 500
POLICIES = ("icount", "flush", "l1mcount", "roundrobin")

#: Fields that are no knob of the simulated machine.
LABELS = {(PipelineModel, "name"), (MicroarchConfig, "name")}
CONTAINERS = {
    (MicroarchConfig, "pipelines"),
    (MicroarchConfig, "params"),
    (BaselineParams, "memory"),
}
CONSTRAINTS = {(MicroarchConfig, "allow_context_overcommit")}

KNOBS = [
    (cls, f.name)
    for cls in (PipelineModel, BaselineParams, MemoryParams, MicroarchConfig)
    for f in fields(cls)
    if (cls, f.name) not in LABELS | CONTAINERS | CONSTRAINTS
]


def _with(config: MicroarchConfig, cls, name: str, value_of) -> MicroarchConfig:
    """``config`` with field ``name`` of its ``cls`` part set to
    ``value_of(old value)`` (on every pipeline, for a pipeline field)."""

    def bump(part):
        return replace(part, **{name: value_of(getattr(part, name))})

    params = config.params
    if cls is PipelineModel:
        return replace(config, pipelines=tuple(map(bump, config.pipelines)))
    if cls is BaselineParams:
        return replace(config, params=bump(params))
    if cls is MemoryParams:
        return replace(config, params=replace(params, memory=bump(params.memory)))
    return bump(config)


def _perturbations(cls, name: str):
    if (cls, name) == (MicroarchConfig, "fetch_policy"):
        return [lambda old, p=p: p for p in POLICIES]
    return [lambda old: old * 2, lambda old: 1]


def _numbers(config: MicroarchConfig, workload: str, mapping) -> tuple:
    result = run_simulation(config, WORKLOADS[workload].benchmarks, mapping, TARGET)
    areas = [config_area(config)]
    for p in config.pipelines:
        areas.extend(sorted(stage_breakdown(p).items()))
    return result, tuple(areas)


@lru_cache(maxsize=None)
def _baseline(index: int) -> tuple:
    name, workload, mapping = SCENARIOS[index]
    return _numbers(get_config(name), workload, mapping)


@pytest.mark.parametrize(
    "cls, name", KNOBS, ids=[f"{c.__name__}.{n}" for c, n in KNOBS]
)
def test_every_knob_moves_a_number(cls, name):
    for index, (config_name, workload, mapping) in enumerate(SCENARIOS):
        for value_of in _perturbations(cls, name):
            try:
                variant = _with(get_config(config_name), cls, name, value_of)
                numbers = _numbers(variant, workload, mapping)
            except ValueError:
                continue  # not a buildable machine or mapping; next value
            if numbers != _baseline(index):
                return
    pytest.fail(
        f"{cls.__name__}.{name} moves no simulated or area number: "
        "delete it (keeping its key bytes in RETIRED_KEY_TEXT)"
    )


def test_context_overcommit_moves_the_context_limit():
    m8 = get_config("M8")
    assert m8.contexts_for(6) == 6
    assert replace(m8, allow_context_overcommit=False).contexts_for(6) == 4

