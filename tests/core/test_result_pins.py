"""Pinned outcomes for every standard configuration on every workload.

``tests/data/engine_pins.json`` holds one record per (configuration,
workload) pair, run at the pair's last enumerated thread-to-pipeline
mapping (the most spread one) to a 1,000-instruction commit target: the
simulated cycles, the per-thread commits and a SHA-256 of the whole
:class:`~repro.core.simulation.SimResult`, plus the job's result-cache
and request keys (checked in ``tests/runner/test_result_cache.py``).

The table was recorded at commit fcb4d9c, the last engine that ran
monolithic configurations on their own stage variants, so it pins the
single stage set to those results bit for bit, M8 included. Regenerate
it only for an intended modelling change::

    PYTHONPATH=src python tests/core/test_result_pins.py > tests/data/engine_pins.json
"""

import dataclasses
import json
from hashlib import sha256
from pathlib import Path

import pytest

from repro.core.config import STANDARD_CONFIG_NAMES, get_config
from repro.core.mapping import enumerate_mappings
from repro.core.simulation import run_simulation
from repro.workloads.definitions import WORKLOADS, WORKLOAD_NAMES

PINS_PATH = Path(__file__).resolve().parents[1] / "data" / "engine_pins.json"
TARGET = 1000

PINS = json.loads(PINS_PATH.read_text())


def _simulate(config: str, workload: str, mapping, target: int) -> dict:
    result = run_simulation(
        config, WORKLOADS[workload].benchmarks, tuple(mapping), target
    )
    payload = json.dumps(dataclasses.asdict(result), sort_keys=True)
    return {
        "cycles": result.cycles,
        "committed": list(result.committed),
        "result_sha256": sha256(payload.encode()).hexdigest(),
    }


def _record_pins() -> list:
    from repro.runner import ResultCache, SimJob
    from repro.service.protocol import request_key

    records = []
    for config in STANDARD_CONFIG_NAMES:
        for workload in WORKLOAD_NAMES:
            benchmarks = WORKLOADS[workload].benchmarks
            mapping = enumerate_mappings(get_config(config), len(benchmarks))[-1]
            job = SimJob(config, benchmarks, tuple(mapping), TARGET)
            records.append(
                {
                    "config": config,
                    "workload": workload,
                    "mapping": list(mapping),
                    "target": TARGET,
                    **_simulate(config, workload, mapping, TARGET),
                    "job_key": ResultCache.job_key(job),
                    "request_key": request_key("sweep", [job]),
                }
            )
    return records


def test_pins_cover_every_config_and_workload():
    assert [(p["config"], p["workload"]) for p in PINS] == [
        (c, w) for c in STANDARD_CONFIG_NAMES for w in WORKLOAD_NAMES
    ]


@pytest.mark.parametrize(
    "pin", PINS, ids=[f"{p['config']}-{p['workload']}" for p in PINS]
)
def test_simulation_matches_pinned_result(pin):
    outcome = _simulate(pin["config"], pin["workload"], pin["mapping"], pin["target"])
    assert outcome["cycles"] == pin["cycles"]
    assert outcome["committed"] == pin["committed"]
    assert outcome["result_sha256"] == pin["result_sha256"]


if __name__ == "__main__":
    rows = ",\n".join(json.dumps(r) for r in _record_pins())
    print(f"[\n{rows}\n]")
