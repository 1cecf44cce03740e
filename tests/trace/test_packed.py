"""Packed traces: exact round trips, the on-disk store, zero-copy access.

The packed subsystem is only allowed to exist because it is *lossless*:
every test here is ultimately an exactness assertion — entry-by-entry
tuple equality including the wrong-path junk pool, across every benchmark
profile, through bytes, files and mmap alike.
"""

from array import array

import pytest

from repro.core.config import get_config
from repro.core.engine import Processor, clear_warm_cache, ensure_warm_snapshot
from repro.core.engine import warm as warm_mod
from repro.core.simulation import run_simulation
from repro.isa.opcodes import OP_BRANCH, OP_CALL, OP_LOAD, OP_RETURN, OP_STORE
from repro.memory.hierarchy import MemoryParams
from repro.trace.benchmarks import BENCHMARK_NAMES, BenchmarkProfile, get_benchmark
from repro.trace.composite import composite_trace
from repro.trace.packed import (
    PACK_FORMAT_VERSION,
    PackedTrace,
    PackedTraceStore,
    WarmSequences,
    warm_sequences,
)
from repro.trace.stream import (
    FETCH_BLOCK,
    Trace,
    active_trace_store,
    clear_trace_cache,
    set_trace_store,
    trace_for,
)
from repro.trace.synthetic import StaticProgram, TraceGenerator

_LEN = 1500


def _tuples(columns):
    """Decode int64 columns back into entry tuples."""
    return list(zip(*columns))


# Tests control the active store explicitly; the shared conftest fixture
# deactivates it and drops the memo caches after every test.
pytestmark = pytest.mark.usefixtures("clean_sim_state")


# ------------------------------------------------------------- round trips


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_round_trip_exact_for_every_profile(name, generated_stream):
    """Generated tuples -> packed -> tuples is entry-by-entry exact,
    junk included."""
    entries, junk = generated_stream(name, _LEN)
    trace = trace_for(name, _LEN)
    packed = PackedTrace.from_trace(trace)
    assert packed is trace.packed
    assert _tuples(packed.columns) == entries
    assert _tuples(packed.junk_columns) == junk
    # Through serialized bytes as well.
    again = PackedTrace.from_buffer(packed.to_bytes())
    assert _tuples(again.columns) == entries
    assert _tuples(again.junk_columns) == junk
    assert again.name == trace.name


def test_packed_backed_trace_is_lazy_and_exact():
    """A Trace over deserialized columns serves next_pc() and decodes
    only the fetch blocks it is asked for, each equal to the generated
    trace's."""
    base = trace_for("twolf", _LEN)
    packed = PackedTrace.from_buffer(base.packed.to_bytes())
    lazy = Trace("twolf", base.profile, packed=packed)
    assert lazy.packed is packed
    assert lazy.next_pc(7) == base.next_pc(7)
    assert lazy.next_pc(_LEN + 7) == base.next_pc(7)  # wraps
    eblocks, jblocks = lazy.fetch_view()
    assert lazy.entry_block(1) == base.entry_block(1)
    assert lazy.junk_block(0) == base.junk_block(0)
    assert eblocks[0] is None and jblocks[1] is None  # untouched blocks
    assert len(lazy) == len(base)


def _walk_warm_sequences(entries, junk):
    """Each structure's warm stream as a per-entry walk over tuples."""
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
    return WarmSequences(
        mem_addrs=mem_addrs,
        branch_pcs=branch_pcs,
        branch_taken=branch_taken,
        btb_pcs=btb_pcs,
        btb_targets=btb_targets,
        fetch_pcs=[e[6] for e in entries],
        junk_pcs=[e[6] for e in junk],
    )


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_warm_sequences_match_a_per_entry_derivation(name, generated_stream):
    """Each structure's warm stream is what a per-entry walk over the
    generator's tuples issues, in program order: d-side addresses of
    loads and stores, conditional-branch outcomes, taken control
    transfers with the next entry's PC as target, every correct-path PC
    and every wrong-path PC. In-process columns and mmap-style buffers
    agree."""
    expected = _walk_warm_sequences(*generated_stream(name, _LEN))
    packed = PackedTrace.from_trace(trace_for(name, _LEN))
    assert warm_sequences(packed) == expected
    assert warm_sequences(PackedTrace.from_buffer(packed.to_bytes())) == expected


def test_empty_trace_rejected():
    packed = PackedTrace.from_trace(trace_for("gzip", _LEN))
    with pytest.raises(ValueError):
        PackedTrace("x", tuple([[]] * 7), packed.junk_columns)
    with pytest.raises(ValueError):
        PackedTrace("x", packed.columns, tuple([[]] * 7))


# ------------------------------------------------------------------- store


def test_store_save_load_mmap_exact(tmp_path, generated_stream):
    entries, junk = generated_stream("vortex", _LEN)
    trace = trace_for("vortex", _LEN)
    store = PackedTraceStore(tmp_path)
    store.save(PackedTrace.from_trace(trace), "vortex", _LEN, 0)
    assert store.contains("vortex", _LEN, 0, len(junk))
    loaded = store.load("vortex", _LEN, 0, len(junk))
    assert loaded is not None
    assert _tuples(loaded.columns) == entries
    assert _tuples(loaded.junk_columns) == junk


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


def test_trace_for_serves_from_store_exactly(tmp_path, generated_stream):
    """trace_for through an activated store returns the identical stream
    a fresh generation would produce."""
    reference, junk_ref = generated_stream("parser", _LEN)

    # Generate-and-save into the store...
    clear_trace_cache()
    store = set_trace_store(tmp_path, save_on_generate=True)
    generated = trace_for("parser", _LEN)
    assert _tuples(generated.packed.columns) == reference
    assert len(store) == 1

    # ...then a "cold worker" (fresh cache) loads it back via mmap.
    clear_trace_cache()
    store = set_trace_store(tmp_path, save_on_generate=False)
    served = trace_for("parser", _LEN)
    assert isinstance(served.packed.columns[0], memoryview)  # came from the store
    assert store.hits == 1
    assert _tuples(served.packed.columns) == reference
    assert _tuples(served.packed.junk_columns) == junk_ref
    assert active_trace_store() is store


# ------------------------------------------------------------- one backing


#: Everything a Trace may hold: its identity, its PackedTrace and the
#: two block tables of its fetch view (``None`` until fetch asks).
_TRACE_STATE = {
    "name": str,
    "profile": BenchmarkProfile,
    "length": int,
    "junk_length": int,
    "key": (tuple, type(None)),
    "packed": PackedTrace,
    "_entry_blocks": (list, type(None)),
    "_junk_blocks": (list, type(None)),
}


def _assert_holds_only_packed_state(trace):
    """``trace`` holds its identity, its PackedTrace and its two fetch
    block tables, whose slots are ``None`` or one decoded block of
    entry tuples; no tuple list and no warm-up sequences."""
    assert not hasattr(trace, "__dict__")
    held = {
        slot: getattr(trace, slot)
        for slot in type(trace).__slots__
        if hasattr(trace, slot)
    }
    assert set(held) == set(_TRACE_STATE)
    for slot, kind in _TRACE_STATE.items():
        assert isinstance(held[slot], kind), slot
    for table in (held["_entry_blocks"] or [], held["_junk_blocks"] or []):
        for blk in table:
            assert blk is None or (
                0 < len(blk) <= FETCH_BLOCK and isinstance(blk[0], tuple)
            )


def _assert_one_backing(trace, entries, junk):
    """``trace`` holds its stream only as its PackedTrace, and every
    view of it equals a walk of the generator's own tuples."""
    _assert_holds_only_packed_state(trace)
    eblocks, jblocks = trace.fetch_view()
    assert any(eblocks), "the run fetched no block"
    for b, blk in enumerate(eblocks):
        window = entries[b * FETCH_BLOCK:(b + 1) * FETCH_BLOCK]
        assert (blk or trace.entry_block(b)) == window
    for b, blk in enumerate(jblocks):
        window = junk[b * FETCH_BLOCK:(b + 1) * FETCH_BLOCK]
        assert (blk or trace.junk_block(b)) == window
    n = len(entries)
    assert [trace.next_pc(i) for i in range(n)] == [
        entries[(i + 1) % n][6] for i in range(n)
    ]
    assert warm_sequences(trace.packed) == _walk_warm_sequences(entries, junk)
    _assert_holds_only_packed_state(trace)


def _warm_miss_run(target):
    """An 8,000-commit M8 run of gzip+mcf that warms its structures
    from the traces rather than restoring a memoized snapshot."""
    clear_warm_cache()
    run_simulation("M8", ("gzip", "mcf"), (0, 0), target)
    assert len(warm_mod._WARM_CACHE) == 1  # the snapshot it computed


def test_every_trace_holds_only_its_packed_columns(tmp_path, generated_stream):
    """After an 8,000-commit run that warmed from the traces, a
    generated, a store-served and a composite trace each hold their
    stream only as packed columns: no tuple list, and no warm-up
    sequences once the warm pass is done. So does a store-served trace
    set the runner's snapshot precompute warmed."""
    target = 8000
    entries, junk = generated_stream("gzip", target)
    clear_trace_cache()

    set_trace_store(tmp_path / "traces", save_on_generate=True)
    _warm_miss_run(target)
    generated = trace_for("gzip", target)
    assert isinstance(generated.packed.columns[0], array)
    _assert_one_backing(generated, entries, junk)

    clear_trace_cache()
    store = set_trace_store(tmp_path / "traces", save_on_generate=False)
    _warm_miss_run(target)
    served = trace_for("gzip", target)
    assert store.hits == 2
    assert isinstance(served.packed.columns[0], memoryview)
    _assert_one_backing(served, entries, junk)

    clear_trace_cache()
    served_set = [trace_for("gzip", target), trace_for("mcf", target)]
    assert store.hits == 4
    assert ensure_warm_snapshot(str(tmp_path), MemoryParams(), served_set)
    assert list(tmp_path.glob("*.warm"))
    for trace in served_set:
        _assert_holds_only_packed_state(trace)

    # composite_trace's phases: gzip's walk, then mcf's from its own
    # program region, each with half of the junk pool.
    gen_a = TraceGenerator(StaticProgram(get_benchmark("gzip"), seed=0), seed=0)
    gen_b = TraceGenerator(StaticProgram(get_benchmark("mcf"), seed=1), seed=1)
    phase_a = gen_a.generate(3000)
    phase_b = gen_b.generate(target - 3000)
    junk_ab = gen_a.generate_junk(1024) + gen_b.generate_junk(1024)
    composite = composite_trace("gzip", "mcf", target, switch_at=3000)
    proc = Processor(get_config("M8"), [composite], (0,), target)
    proc.warm()
    proc.run()
    assert max(proc.committed) >= target
    _assert_one_backing(composite, phase_a + phase_b, junk_ab)
