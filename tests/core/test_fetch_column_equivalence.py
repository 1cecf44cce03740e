"""Differential golden test: column-backed fetch ≡ the tuple-list path.

The fetch engine now indexes lazily-decoded blocks over the packed int64
columns. Its license is exactness: for the same (config, workload,
mapping), a simulation whose fetch blocks decode from *columns*
(store-served, mmap-backed traces) must be bit-identical — IPC, cycles,
per-thread commit counts, branch statistics, every stat in the result —
to one whose blocks slice out of the *tuple lists* the seed fetch loop
indexed (generated, list-backed traces).

Covered scenarios: the reference scenario pinned by the screening
equivalence contract, plus one workload per class (ILP / MEM / MIX) on
both a multipipeline configuration and the monolithic M8 baseline.
"""

import pytest

from repro.core.engine import clear_warm_cache
from repro.core.simulation import run_simulation
from repro.trace.stream import (
    clear_trace_cache,
    set_trace_store,
    trace_for,
)

#: (config, workload benchmarks, mapping, commit target)
SCENARIOS = {
    # The reference scenario (screening-contract configuration family).
    "reference": ("2M4+2M2", ("gzip", "twolf", "bzip2", "mcf"),
                  (0, 2, 1, 3), 2000),
    # One workload per class — 4W1 (ILP), 4W4 (MEM), 4W8 (MIX).
    "ILP-4W1": ("2M4+2M2", ("eon", "gcc", "gzip", "bzip2"),
                (0, 1, 2, 3), 1500),
    "MEM-4W4": ("2M4+2M2", ("mcf", "twolf", "vpr", "perlbmk"),
                (0, 1, 2, 3), 1500),
    "MIX-4W8": ("2M4+2M2", ("parser", "vpr", "vortex", "twolf"),
                (0, 1, 2, 3), 1500),
    # Monolithic baseline: one pipeline hosts every thread.
    "M8-MIX": ("M8", ("gzip", "twolf", "bzip2", "mcf"),
               (0, 0, 0, 0), 1500),
}


@pytest.fixture(autouse=True)
def _clean_state(clean_sim_state):
    """Fresh caches before each scenario; the shared conftest fixture
    restores global state afterwards."""
    set_trace_store(None)
    clear_trace_cache()
    clear_warm_cache()
    yield


def _tuple_backed_run(scenario, tmp_path):
    """Generate traces in-process (list-backed) — fetch blocks slice the
    tuple lists — and persist them so the column run can mmap them."""
    config, benchmarks, mapping, target = scenario
    set_trace_store(tmp_path, save_on_generate=True)
    result = run_simulation(config, benchmarks, mapping, target)
    # Confirm the backing really was the tuple lists.
    for name in set(benchmarks):
        assert trace_for(name, max(4096, target))._entries is not None
    return result


def _column_backed_run(scenario, tmp_path):
    """Serve every trace from the store (mmap) — fetch blocks decode
    from the packed int64 columns; tuple lists never materialize."""
    config, benchmarks, mapping, target = scenario
    clear_trace_cache()
    clear_warm_cache()
    set_trace_store(tmp_path, save_on_generate=False)
    result = run_simulation(config, benchmarks, mapping, target)
    for name in set(benchmarks):
        trace = trace_for(name, max(4096, target))
        assert trace.packed is not None, "trace was not store-served"
        assert trace._entries is None, "column path materialized tuples"
    return result


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_column_fetch_bit_identical_to_tuple_fetch(scenario, tmp_path):
    ref = _tuple_backed_run(SCENARIOS[scenario], tmp_path)
    col = _column_backed_run(SCENARIOS[scenario], tmp_path)
    # Full SimResult equality covers everything below; the named
    # assertions exist so a regression reports *what* diverged.
    assert col.ipc == ref.ipc
    assert col.cycles == ref.cycles
    assert col.committed == ref.committed
    assert col.thread_ipc == ref.thread_ipc
    for key in ("branch_mispredict_rate", "mispredicts", "flushes",
                "squashed", "wrongpath_fetched", "fetched",
                "icache_stalls", "btb_bubbles"):
        assert col.stats[key] == ref.stats[key], key
    assert col == ref
