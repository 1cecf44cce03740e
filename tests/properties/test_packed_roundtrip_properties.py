"""Property-based tests: packed traces round-trip exactly, always.

The packed subsystem's license to exist is losslessness (see
tests/trace/test_packed.py for the example-based suite). Here hypothesis
drives *randomized* traces — arbitrary int64 column values, arbitrary
lengths, degenerate single-entry streams — through the full journey the
production path takes: pack → serialize → store → mmap → block decode,
asserting tuple-for-tuple equality at every hop.
"""

from hypothesis import given, settings, strategies as st

import pytest

from repro.trace.benchmarks import get_benchmark
from repro.trace.packed import PackedTrace, PackedTraceStore
from repro.trace.stream import FETCH_MASK, FETCH_SHIFT, Trace

# Any int64 value must survive the journey — the columns are declared
# ``array('q')`` and the simulator only ever feeds small non-negative
# ints, but the pack format must not silently depend on that.
_I64 = st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1)
_entry = st.tuples(_I64, _I64, _I64, _I64, _I64, _I64, _I64)
_entries = st.lists(_entry, min_size=1, max_size=300)
_small_entries = st.lists(_entry, min_size=1, max_size=40)

_PROF = get_benchmark("gzip")


def _tuples(columns):
    """Decode int64 columns back into entry tuples."""
    return list(zip(*columns))


@given(_entries, _small_entries)
@settings(max_examples=60, deadline=None)
def test_pack_roundtrip_exact(entries, junk):
    packed = PackedTrace.from_entries("rand", entries, junk)
    assert packed.length == len(entries)
    assert packed.junk_length == len(junk)
    assert _tuples(packed.columns) == entries
    assert _tuples(packed.junk_columns) == junk


@given(_entries, _small_entries)
@settings(max_examples=40, deadline=None)
def test_serialized_roundtrip_exact(entries, junk):
    packed = PackedTrace.from_entries("rand", entries, junk)
    again = PackedTrace.from_buffer(packed.to_bytes())
    assert again.name == "rand"
    assert _tuples(again.columns) == entries
    assert _tuples(again.junk_columns) == junk


@given(_entries, _small_entries, st.integers(min_value=0, max_value=1 << 20))
@settings(max_examples=25, deadline=None)
def test_store_mmap_roundtrip_exact(tmp_path_factory, entries, junk, instance):
    """pack → save → mmap-load: values and ordering survive the on-disk
    trip."""
    store = PackedTraceStore(tmp_path_factory.mktemp("store"))
    packed = PackedTrace.from_entries("rand", entries, junk)
    store.save(packed, "rand", len(entries), instance)
    loaded = store.load("rand", len(entries), instance, len(junk))
    assert loaded is not None
    # Zero-copy backing: mmap-served columns are memoryviews, and the
    # entries come back identical element-by-element *in order*.
    assert isinstance(loaded.columns[0], memoryview)
    assert loaded.length == len(entries)
    assert _tuples(loaded.columns) == entries
    assert _tuples(loaded.junk_columns) == junk


def _assert_blocks_match(trace, entries, junk):
    eblocks, jblocks = trace.fetch_view()
    for i in range(len(entries)):
        blk = eblocks[i >> FETCH_SHIFT]
        if blk is None:
            blk = trace.entry_block(i >> FETCH_SHIFT)
        assert blk[i & FETCH_MASK] == entries[i]
    for i in range(len(junk)):
        blk = jblocks[i >> FETCH_SHIFT]
        if blk is None:
            blk = trace.junk_block(i >> FETCH_SHIFT)
        assert blk[i & FETCH_MASK] == junk[i]


@given(_entries, _small_entries)
@settings(max_examples=25, deadline=None)
def test_block_decoded_fetch_view_matches_entries(entries, junk):
    """The fetch engine's lazily-decoded blocks reproduce the stream
    exactly, for a Trace packed from tuple lists and for one over
    serialized columns."""
    trace = Trace("rand", _PROF, entries, junk)
    _assert_blocks_match(trace, entries, junk)
    packed = PackedTrace.from_buffer(trace.packed.to_bytes())
    _assert_blocks_match(Trace("rand", _PROF, packed=packed), entries, junk)


@given(_entry, _entry)
@settings(max_examples=20, deadline=None)
def test_single_entry_trace_roundtrip(entry, junk_entry):
    """The smallest legal trace (one entry, one junk slot) survives the
    full journey, wrap-around indexing included."""
    packed = PackedTrace.from_entries("one", [entry], [junk_entry])
    again = PackedTrace.from_buffer(packed.to_bytes())
    trace = Trace("one", _PROF, packed=again)
    assert trace.entry_block(0) == [entry]
    assert trace.junk_block(0) == [junk_entry]
    assert trace.next_pc(0) == trace.next_pc(5) == entry[6]  # modulo wrap


def test_empty_traces_are_rejected():
    """Empty streams must fail loudly at construction, not corrupt the
    store: a packed trace always carries >= 1 entry and >= 1 junk slot."""
    with pytest.raises(ValueError):
        PackedTrace.from_entries("empty", [], [(0,) * 7])
    with pytest.raises(ValueError):
        PackedTrace.from_entries("nojunk", [(0,) * 7], [])
    with pytest.raises(ValueError):
        Trace("empty", _PROF, [], [(0,) * 7])


@given(st.binary(min_size=0, max_size=200))
@settings(max_examples=50, deadline=None)
def test_arbitrary_bytes_never_parse_as_a_trace(blob):
    """from_buffer on garbage raises ValueError (the store maps this to
    a miss) — it must never fabricate a trace."""
    try:
        PackedTrace.from_buffer(blob)
    except ValueError:
        pass  # the only acceptable failure mode
