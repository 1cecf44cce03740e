"""Unit tests: Trace objects and the process-wide cache."""

import pytest

from repro.trace.stream import Trace, clear_trace_cache, trace_for
from repro.trace.benchmarks import get_benchmark


def _decoded(trace):
    """The trace's correct-path stream decoded from its columns."""
    return list(zip(*trace.packed.columns))


def test_trace_for_caches():
    clear_trace_cache()
    t1 = trace_for("gzip", 2000)
    t2 = trace_for("gzip", 2000)
    assert t1 is t2


def test_distinct_instances_differ():
    a = trace_for("gzip", 2000, instance=0)
    b = trace_for("gzip", 2000, instance=1)
    assert a is not b
    assert _decoded(a) != _decoded(b)


def test_next_pc_wraps_modulo():
    t = trace_for("eon", 1000)
    for i in (0, 5, 999):
        assert t.next_pc(i) == t.next_pc(i + 1000) == t.next_pc(i + 2000)


def test_next_pc_is_next_entrys_pc(generated_stream):
    entries, _junk = generated_stream("eon", 1000)
    t = trace_for("eon", 1000)
    assert t.next_pc(5) == entries[6][6]
    assert t.next_pc(999) == entries[0][6]  # wrap


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
    assert _decoded(t1) == _decoded(t2)  # still deterministic


# --------------------------------------------------- column-backed fetch view


def test_fetch_view_blocks_match_entries_for_generated_trace(generated_stream):
    """Generated traces decode fetch blocks from the columns they were
    packed into, tuple for tuple."""
    from repro.trace.stream import FETCH_BLOCK, FETCH_MASK, FETCH_SHIFT

    entries, junk = generated_stream("gcc", 2500)
    t = trace_for("gcc", 2500)
    eblocks, jblocks = t.fetch_view()
    assert len(eblocks) == (2500 + FETCH_MASK) >> FETCH_SHIFT
    assert all(b is None for b in eblocks)  # lazy until first touch
    for i in (0, 1, FETCH_BLOCK - 1, FETCH_BLOCK, 2499):
        blk = eblocks[i >> FETCH_SHIFT] or t.entry_block(i >> FETCH_SHIFT)
        assert blk[i & FETCH_MASK] == entries[i]
    for i in (0, len(junk) - 1):
        blk = jblocks[i >> FETCH_SHIFT] or t.junk_block(i >> FETCH_SHIFT)
        assert blk[i & FETCH_MASK] == junk[i]


def test_store_served_fetch_view_never_materializes(trace_store,
                                                   generated_stream):
    """Store-served (mmap) traces decode fetch blocks straight from the
    mapped columns."""
    from repro.trace.stream import FETCH_MASK, FETCH_SHIFT

    reference, _junk = generated_stream("gcc", 1800)
    generated = trace_for("gcc", 1800)
    assert trace_store.contains("gcc", 1800, 0, generated.junk_length)

    clear_trace_cache()
    served = trace_for("gcc", 1800)
    assert isinstance(served.packed.columns[0], memoryview)  # mmap-served
    for i in range(1800):
        blk = (
            served._entry_blocks and served._entry_blocks[i >> FETCH_SHIFT]
        ) or served.entry_block(i >> FETCH_SHIFT)
        assert blk[i & FETCH_MASK] == reference[i]


def test_saved_generated_trace_is_packed_once(trace_store, monkeypatch):
    """Generating under a saving store packs the trace straight into its
    columns, chunk by chunk as the walker emits it: no tuple list is
    ever handed to ``PackedTrace.from_entries``, and the one packed form
    is saved once and backs the warm-up sequences."""
    from repro.trace.packed import PackedTrace, PackedTraceStore, warm_sequences

    packs = []
    saves = []
    real_save = PackedTraceStore.save

    def counting_pack(cls, *args, **kwargs):  # pragma: no cover - must not run
        packs.append(args[0])
        raise AssertionError("a generated trace went through from_entries")

    def counting_save(self, packed, *args):
        saves.append(packed)
        return real_save(self, packed, *args)

    monkeypatch.setattr(PackedTrace, "from_entries", classmethod(counting_pack))
    monkeypatch.setattr(PackedTraceStore, "save", counting_save)
    t = trace_for("mcf", 4096)
    warm_sequences(t.packed)
    assert packs == []
    assert saves == [t.packed]
    assert trace_store.contains("mcf", 4096, 0, t.junk_length)
