"""Packed traces: exact round trips, the on-disk store, zero-copy access.

The packed subsystem is only allowed to exist because it is *lossless*:
every test here is ultimately an exactness assertion — entry-by-entry
tuple equality including the wrong-path junk pool, across every benchmark
profile, through bytes, files and mmap alike.
"""

import pytest

from repro.isa.opcodes import OP_BRANCH, OP_CALL, OP_LOAD, OP_RETURN, OP_STORE
from repro.trace.benchmarks import BENCHMARK_NAMES
from repro.trace.packed import (
    PACK_FORMAT_VERSION,
    PackedTrace,
    PackedTraceStore,
    WarmSequences,
    warm_sequences,
)
from repro.trace.stream import (
    Trace,
    active_trace_store,
    clear_trace_cache,
    set_trace_store,
    trace_for,
)

_LEN = 1500

# Tests control the active store explicitly; the shared conftest fixture
# deactivates it and drops the memo caches after every test.
pytestmark = pytest.mark.usefixtures("clean_sim_state")


# ------------------------------------------------------------- round trips


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_round_trip_exact_for_every_profile(name):
    """Trace -> packed -> Trace is entry-by-entry exact, junk included."""
    trace = trace_for(name, _LEN)
    packed = PackedTrace.from_trace(trace)
    assert packed.materialize_entries() == trace.entries
    assert packed.materialize_junk() == trace.junk
    # Through serialized bytes as well.
    again = PackedTrace.from_buffer(packed.to_bytes())
    assert again.materialize_entries() == trace.entries
    assert again.materialize_junk() == trace.junk
    assert again.name == trace.name


def test_single_entry_access_matches_lists():
    trace = trace_for("gcc", _LEN)
    packed = PackedTrace.from_trace(trace)
    for i in (0, 1, 17, _LEN - 1):
        assert packed.entry(i) == trace.entries[i]
    for i in (0, 5, len(trace.junk) - 1):
        assert packed.junk_entry(i) == trace.junk[i]


def test_packed_backed_trace_is_lazy_and_exact():
    """A packed-backed Trace serves entry()/next_pc() straight from the
    columns before materializing, and materializes to identical lists."""
    base = trace_for("twolf", _LEN)
    packed = PackedTrace.from_trace(base)
    lazy = Trace("twolf", base.profile, packed=packed)
    # Zero-copy path (no materialization yet).
    assert lazy._entries is None
    assert lazy.entry(3) == base.entries[3]
    assert lazy.entry(_LEN + 3) == base.entries[3]  # wraps
    assert lazy.next_pc(7) == base.next_pc(7)
    assert lazy.junk_entry(11) == base.junk_entry(11)
    assert lazy._entries is None
    # Materialized path.
    assert lazy.entries == base.entries
    assert lazy.junk == base.junk
    assert len(lazy) == len(base)


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_warm_sequences_match_a_per_entry_derivation(name):
    """Each structure's warm stream is what a per-entry walk over the
    trace's tuples issues, in program order: d-side addresses of loads
    and stores, conditional-branch outcomes, taken control transfers
    with the next entry's PC as target, every correct-path PC and every
    wrong-path PC. In-process columns and mmap-style buffers agree."""
    trace = trace_for(name, _LEN)
    entries = trace.entries
    n = len(entries)
    mem_addrs, branch_pcs, branch_taken, btb_pcs, btb_targets = [], [], [], [], []
    for i, (op, _dest, _src1, _src2, addr, taken, pc) in enumerate(entries):
        if op in (OP_LOAD, OP_STORE):
            mem_addrs.append(addr)
        if op == OP_BRANCH:
            branch_pcs.append(pc)
            branch_taken.append(bool(taken))
        if op in (OP_BRANCH, OP_CALL, OP_RETURN) and taken:
            btb_pcs.append(pc)
            btb_targets.append(entries[(i + 1) % n][6])
    expected = WarmSequences(
        mem_addrs=mem_addrs,
        branch_pcs=branch_pcs,
        branch_taken=branch_taken,
        btb_pcs=btb_pcs,
        btb_targets=btb_targets,
        fetch_pcs=[e[6] for e in entries],
        junk_pcs=[e[6] for e in trace.junk],
    )
    packed = PackedTrace.from_trace(trace)
    assert warm_sequences(packed) == expected
    assert warm_sequences(PackedTrace.from_buffer(packed.to_bytes())) == expected


def test_empty_trace_rejected():
    packed = PackedTrace.from_trace(trace_for("gzip", _LEN))
    with pytest.raises(ValueError):
        PackedTrace("x", tuple([[]] * 7), packed.junk_columns)
    with pytest.raises(ValueError):
        PackedTrace("x", packed.columns, tuple([[]] * 7))


# ------------------------------------------------------------------- store


def test_store_save_load_mmap_exact(tmp_path):
    trace = trace_for("vortex", _LEN)
    store = PackedTraceStore(tmp_path)
    store.save(PackedTrace.from_trace(trace), "vortex", _LEN, 0)
    assert store.contains("vortex", _LEN, 0, len(trace.junk))
    loaded = store.load("vortex", _LEN, 0, len(trace.junk))
    assert loaded is not None
    assert loaded.materialize_entries() == trace.entries
    assert loaded.materialize_junk() == trace.junk


def test_store_miss_and_corruption_degrade_to_none(tmp_path):
    store = PackedTraceStore(tmp_path)
    assert store.load("gzip", _LEN, 0, 2048) is None  # missing

    trace = trace_for("gzip", _LEN)
    store.save(PackedTrace.from_trace(trace), "gzip", _LEN, 0)
    path = next(tmp_path.glob("*.trace"))

    # Truncation: drop half the payload.
    payload = path.read_bytes()
    path.write_bytes(payload[: len(payload) // 2])
    assert store.load("gzip", _LEN, 0, 2048) is None

    # Garbage: not even the magic survives.
    path.write_bytes(b"not a packed trace at all")
    assert store.load("gzip", _LEN, 0, 2048) is None


def test_store_key_depends_on_identity_and_format_version(monkeypatch):
    k = PackedTraceStore.trace_key("gcc", _LEN, 0, 2048)
    assert PackedTraceStore.trace_key("gcc", _LEN, 1, 2048) != k
    assert PackedTraceStore.trace_key("gcc", _LEN + 1, 0, 2048) != k
    assert PackedTraceStore.trace_key("mcf", _LEN, 0, 2048) != k
    import repro.trace.packed as packed_mod

    monkeypatch.setattr(packed_mod, "PACK_FORMAT_VERSION",
                        PACK_FORMAT_VERSION + 1)
    assert PackedTraceStore.trace_key("gcc", _LEN, 0, 2048) != k


def test_trace_for_serves_from_store_exactly(tmp_path):
    """trace_for through an activated store returns the identical stream
    a fresh generation would produce."""
    reference = trace_for("parser", _LEN).entries
    junk_ref = trace_for("parser", _LEN).junk

    # Generate-and-save into the store...
    clear_trace_cache()
    store = set_trace_store(tmp_path, save_on_generate=True)
    generated = trace_for("parser", _LEN)
    assert generated.entries == reference
    assert len(store) == 1

    # ...then a "cold worker" (fresh cache) loads it back via mmap.
    clear_trace_cache()
    store = set_trace_store(tmp_path, save_on_generate=False)
    served = trace_for("parser", _LEN)
    assert served.packed is not None  # came from the store
    assert store.hits == 1
    assert served.entries == reference
    assert served.junk == junk_ref
    assert active_trace_store() is store
