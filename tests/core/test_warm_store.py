"""On-disk warm snapshots and packed-trace-backed golden equivalence.

The acceptance bar for the packed/warm machinery: the golden scenarios
must stay bit-identical when traces arrive through the packed store and
warm state arrives through the snapshot store — and corruption anywhere
degrades to recompute, never to different numbers.
"""

import pytest

from repro.core.engine import (
    clear_warm_cache,
    ensure_warm_snapshot,
    set_warm_store,
    warm_snapshot_path,
)
from repro.core.simulation import run_simulation
from repro.memory.hierarchy import MemoryParams
from repro.trace.stream import clear_trace_cache, set_trace_store, trace_for

GOLDEN_CONFIG = "2M4+2M2"
GOLDEN_WORKLOAD = ("gzip", "twolf", "bzip2", "mcf")
GOLDEN_MAPPING = (0, 2, 1, 3)
GOLDEN_TARGET = 2000


# Store deactivation + cache clearing after every test comes from the
# shared conftest fixture.
pytestmark = pytest.mark.usefixtures("clean_sim_state")


def _golden_run():
    return run_simulation(
        GOLDEN_CONFIG, GOLDEN_WORKLOAD, GOLDEN_MAPPING, GOLDEN_TARGET
    )


def test_golden_equivalence_through_packed_store(tmp_path):
    """Simulating from store-served (mmap) traces is bit-identical."""
    reference = _golden_run()

    clear_trace_cache()
    clear_warm_cache()
    set_trace_store(tmp_path, save_on_generate=True)
    populated = _golden_run()  # generates + persists packed traces

    clear_trace_cache()
    clear_warm_cache()
    set_trace_store(tmp_path, save_on_generate=False)
    served = _golden_run()  # every trace mmap-loaded from the store

    assert populated == reference
    assert served == reference


def test_golden_equivalence_through_warm_store(tmp_path):
    """Restoring warm state from a disk snapshot is bit-identical."""
    reference = _golden_run()

    clear_warm_cache()
    set_warm_store(str(tmp_path))
    first = _golden_run()  # computes + persists the snapshot
    assert list(tmp_path.glob("*.warm"))

    clear_warm_cache()  # force the disk path
    second = _golden_run()

    assert first == reference
    assert second == reference


def test_corrupted_warm_snapshot_recomputes(tmp_path):
    reference = _golden_run()
    clear_warm_cache()
    set_warm_store(str(tmp_path))
    _golden_run()
    for snap in tmp_path.glob("*.warm"):
        snap.write_bytes(b"\x00garbage")
    clear_warm_cache()
    assert _golden_run() == reference


def test_parent_precomputed_snapshot_matches_worker_computation(tmp_path):
    """ensure_warm_snapshot (the BatchRunner parent's pre-warm) writes
    the byte-for-byte snapshot a Processor would have written."""
    traces = [trace_for(b, 3000) for b in GOLDEN_WORKLOAD]
    params = MemoryParams()
    assert ensure_warm_snapshot(str(tmp_path), params, traces)
    path = warm_snapshot_path(
        str(tmp_path), params, len(traces), [t.key for t in traces]
    )
    first = open(path, "rb").read()

    # A processor warming the same set through the store must agree (it
    # loads the snapshot; recomputation would produce identical bytes).
    clear_warm_cache()
    set_warm_store(str(tmp_path))
    res_a = run_simulation(
        GOLDEN_CONFIG, GOLDEN_WORKLOAD, GOLDEN_MAPPING, 1500, trace_length=3000
    )
    assert open(path, "rb").read() == first

    clear_warm_cache()
    set_warm_store(None)
    res_b = run_simulation(
        GOLDEN_CONFIG, GOLDEN_WORKLOAD, GOLDEN_MAPPING, 1500, trace_length=3000
    )
    assert res_a == res_b


def test_hand_built_traces_skip_the_warm_store(tmp_path):
    """Traces without a content key (hand-built) never hit the disk."""
    from repro.core.config import get_config
    from repro.core.engine import Processor
    from repro.trace.benchmarks import get_benchmark
    from repro.trace.stream import Trace

    base = trace_for("gzip", 2000)
    hand = Trace("hand", get_benchmark("gzip"), list(base.entries),
                 list(base.junk))
    assert hand.key is None
    set_warm_store(str(tmp_path))
    proc = Processor(get_config("M8"), [hand], (0,), 500)
    proc.warm()
    assert not list(tmp_path.glob("*.warm"))
