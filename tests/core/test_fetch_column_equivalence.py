"""Differential golden test: column-backed fetch ≡ the tuple-list path.

The fetch engine indexes lazily-decoded blocks over a trace's packed
int64 columns. Its license is exactness: for the same (config, workload,
mapping), a simulation whose fetch blocks decode from *columns* must be
bit-identical — IPC, cycles, per-thread commit counts, branch
statistics, every stat in the result — to one whose blocks slice out of
the *tuple lists* the generator emits, the way the seed fetch loop
indexed them.

The reference below is that tuple-list path: a :class:`Trace` subclass
whose fetch blocks and ``next_pc`` read the generator's own tuples. It
runs against traces generated in-process (``array`` columns) and served
from the packed store (mmap-backed ``memoryview`` columns).

Covered scenarios: the reference scenario pinned by the screening
equivalence contract, plus one workload per class (ILP / MEM / MIX) on
both a multipipeline configuration and the monolithic M8 baseline.
"""

import pytest

from repro.core.config import get_config
from repro.core.engine import Processor, clear_warm_cache
from repro.core.simulation import (
    collect_result,
    default_trace_length,
    resolve_trace_triples,
    run_simulation,
)
from repro.trace.benchmarks import get_benchmark
from repro.trace.stream import (
    FETCH_BLOCK,
    FETCH_SHIFT,
    Trace,
    clear_trace_cache,
    set_trace_store,
    trace_for,
)


class _TupleTrace(Trace):
    """A trace whose fetch path reads explicit tuple lists: blocks are
    slices of ``entries``/``junk`` and ``next_pc`` indexes ``entries``."""

    __slots__ = ("entries", "junk")

    def __init__(self, name, entries, junk):
        super().__init__(name, get_benchmark(name), entries, junk)
        self.entries = entries
        self.junk = junk

    def next_pc(self, index):
        return self.entries[(index + 1) % self.length][6]

    def entry_block(self, block):
        if self._entry_blocks is None:
            self.fetch_view()
        lo = block << FETCH_SHIFT
        blk = self.entries[lo:lo + FETCH_BLOCK]
        self._entry_blocks[block] = blk
        return blk

    def junk_block(self, block):
        if self._junk_blocks is None:
            self.fetch_view()
        lo = block << FETCH_SHIFT
        blk = self.junk[lo:lo + FETCH_BLOCK]
        self._junk_blocks[block] = blk
        return blk


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


def _tuple_backed_run(scenario, generated_stream):
    """run_simulation's steps over :class:`_TupleTrace` copies of the
    generator's tuples — fetch blocks slice the tuple lists."""
    config, benchmarks, mapping, target = scenario
    traces = [
        _TupleTrace(name, *generated_stream(name, length, instance))
        for name, length, instance in resolve_trace_triples(
            benchmarks, default_trace_length(target)
        )
    ]
    proc = Processor(get_config(config), traces, mapping, target)
    proc.warm()
    proc.mem.reset_stats()
    proc.branch_unit.reset_stats()
    proc.run()
    # Fetch really read the tuple lists: a slice shares the generator's
    # tuple objects, where a column decode builds new ones.
    for tr in traces:
        assert tr._entry_blocks[0][0] is tr.entries[0]
    return collect_result(proc, config, benchmarks, mapping, target)


def _generated_run(scenario, tmp_path):
    """Generate traces in-process — fetch blocks decode from ``array``
    columns — and persist them so the served run can mmap them."""
    config, benchmarks, mapping, target = scenario
    set_trace_store(tmp_path, save_on_generate=True)
    return run_simulation(config, benchmarks, mapping, target)


def _served_run(scenario, tmp_path):
    """Serve every trace from the store — fetch blocks decode from the
    mmap-backed columns."""
    config, benchmarks, mapping, target = scenario
    clear_trace_cache()
    clear_warm_cache()
    set_trace_store(tmp_path, save_on_generate=False)
    result = run_simulation(config, benchmarks, mapping, target)
    for name in set(benchmarks):
        trace = trace_for(name, default_trace_length(target))
        assert isinstance(trace.packed.columns[0], memoryview), (
            "trace was not store-served")
    return result


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_column_fetch_bit_identical_to_tuple_fetch(scenario, tmp_path,
                                                  generated_stream):
    ref = _tuple_backed_run(SCENARIOS[scenario], generated_stream)
    assert _generated_run(SCENARIOS[scenario], tmp_path) == ref
    col = _served_run(SCENARIOS[scenario], tmp_path)
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
