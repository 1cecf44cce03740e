"""Unit tests: Trace objects and the process-wide cache."""

import pytest

from repro.trace.stream import Trace, clear_trace_cache, trace_for
from repro.trace.benchmarks import get_benchmark


def test_trace_for_caches():
    clear_trace_cache()
    t1 = trace_for("gzip", 2000)
    t2 = trace_for("gzip", 2000)
    assert t1 is t2


def test_distinct_instances_differ():
    a = trace_for("gzip", 2000, instance=0)
    b = trace_for("gzip", 2000, instance=1)
    assert a is not b
    assert a.entries != b.entries


def test_entry_wraps_modulo():
    t = trace_for("eon", 1000)
    assert t.entry(0) == t.entry(1000) == t.entry(2000)


def test_next_pc_is_next_entrys_pc():
    t = trace_for("eon", 1000)
    assert t.next_pc(5) == t.entries[6][6]
    assert t.next_pc(999) == t.entries[0][6]  # wrap


def test_junk_entries_wrap():
    t = trace_for("eon", 1000)
    assert t.junk_entry(0) == t.junk_entry(len(t.junk))


def test_len(t=None):
    t = trace_for("eon", 1234)
    assert len(t) == 1234


def test_empty_trace_rejected():
    prof = get_benchmark("gzip")
    with pytest.raises(ValueError):
        Trace("x", prof, [], [(0, 1, -1, -1, 0, 0, 0)])
    with pytest.raises(ValueError):
        Trace("x", prof, [(0, 1, -1, -1, 0, 0, 0)], [])


def test_clear_cache():
    t1 = trace_for("gzip", 2000)
    clear_trace_cache()
    t2 = trace_for("gzip", 2000)
    assert t1 is not t2
    assert t1.entries == t2.entries  # still deterministic


# --------------------------------------------------- column-backed fetch view


def test_fetch_view_blocks_match_entries_for_generated_trace():
    """Tuple-backed traces serve fetch blocks as slices of the lists."""
    from repro.trace.stream import FETCH_BLOCK, FETCH_MASK, FETCH_SHIFT

    t = trace_for("gcc", 2500)
    eblocks, jblocks = t.fetch_view()
    assert len(eblocks) == (2500 + FETCH_MASK) >> FETCH_SHIFT
    assert all(b is None for b in eblocks)  # lazy until first touch
    for i in (0, 1, FETCH_BLOCK - 1, FETCH_BLOCK, 2499):
        blk = eblocks[i >> FETCH_SHIFT] or t.entry_block(i >> FETCH_SHIFT)
        assert blk[i & FETCH_MASK] == t.entries[i]
    for i in (0, len(t.junk) - 1):
        blk = jblocks[i >> FETCH_SHIFT] or t.junk_block(i >> FETCH_SHIFT)
        assert blk[i & FETCH_MASK] == t.junk[i]


def test_store_served_fetch_view_never_materializes(trace_store):
    """Store-served (mmap) traces decode fetch blocks from the packed
    columns; the full tuple lists must never materialize."""
    from repro.trace.stream import FETCH_MASK, FETCH_SHIFT

    generated = trace_for("gcc", 1800)
    reference = list(generated.entries)  # materialize the *generated* copy
    assert trace_store.contains("gcc", 1800, 0, generated.junk_length)

    clear_trace_cache()
    served = trace_for("gcc", 1800)
    assert served.packed is not None
    for i in range(1800):
        blk = (
            served._entry_blocks and served._entry_blocks[i >> FETCH_SHIFT]
        ) or served.entry_block(i >> FETCH_SHIFT)
        assert blk[i & FETCH_MASK] == reference[i]
    assert served._entries is None  # lazy backing held throughout


def test_saved_generated_trace_is_packed_once(trace_store, monkeypatch):
    """Generating under a saving store packs the trace once: the saved
    packed form backs ``warm_sequences()`` instead of a second pack."""
    from repro.trace.packed import PackedTrace

    real = PackedTrace.from_entries.__func__
    calls = []

    def counting(cls, *args, **kwargs):
        calls.append(args[0])
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(PackedTrace, "from_entries", classmethod(counting))
    t = trace_for("mcf", 4096)
    assert t.packed is not None and t._entries is not None
    t.warm_sequences()
    assert calls == ["mcf"]
    assert trace_store.contains("mcf", 4096, 0, t.junk_length)
