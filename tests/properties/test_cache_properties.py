"""Property-based tests: cache and TLB invariants."""

from hypothesis import given, settings, strategies as st

from repro.memory.cache import SetAssociativeCache
from repro.memory.tlb import TranslationBuffer

addrs = st.lists(st.integers(min_value=0, max_value=2**22), min_size=1, max_size=300)


@given(addrs)
@settings(max_examples=40, deadline=None)
def test_occupancy_never_exceeds_capacity(seq):
    c = SetAssociativeCache(4096, 2, 64, name="p")
    for a in seq:
        c.access(a)
    assert c.occupancy() <= 4096 // 64


@given(addrs)
@settings(max_examples=40, deadline=None)
def test_second_access_always_hits(seq):
    """Immediately re-accessing any address must hit (LRU: MRU survives)."""
    c = SetAssociativeCache(8192, 2, 64, name="p")
    for a in seq:
        c.access(a)
        assert c.access(a) is True


@given(addrs)
@settings(max_examples=40, deadline=None)
def test_stats_consistent(seq):
    c = SetAssociativeCache(4096, 2, 64, name="p", max_threads=1)
    for a in seq:
        c.access(a, 0)
    st_ = c.stats
    assert st_.accesses == len(seq)
    assert st_.hits + st_.misses == st_.accesses
    assert st_.per_thread_accesses[0] == st_.accesses
    assert st_.evictions <= st_.misses


@given(addrs)
@settings(max_examples=40, deadline=None)
def test_misses_monotone_in_associativity(seq):
    """A 4-way cache of equal capacity never misses more than direct-
    mapped... not true in general (Belady), but true vs 1-way on *this*
    LRU + same-capacity setup for the common case; instead assert the
    weaker, always-true property: full-capacity cache never misses twice
    for the same line when the working set fits."""
    lines = {a >> 6 for a in seq}
    big = SetAssociativeCache(1 << 22, 4, 64, name="big")
    misses = 0
    for a in seq:
        if not big.access(a):
            misses += 1
    assert misses == len(lines)  # exactly one compulsory miss per line


@given(addrs, st.integers(min_value=1, max_value=7))
@settings(max_examples=40, deadline=None)
def test_threads_never_false_share(seq, t):
    c = SetAssociativeCache(1 << 22, 2, 64, name="p")
    for a in seq:
        c.access(a, 0)
    # A different thread sees cold lines for the same addresses.
    assert not any(c.probe(a, t) for a in seq)


@given(addrs)
@settings(max_examples=40, deadline=None)
def test_tlb_size_bound_and_rehit(seq):
    tlb = TranslationBuffer(entries=16)
    for a in seq:
        tlb.access(a)
        assert tlb.access(a) is True  # immediate re-access hits
        assert len(tlb) <= 16
