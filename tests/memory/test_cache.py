"""Unit tests: set-associative cache."""

import pytest

from repro.memory.cache import SetAssociativeCache


def make(size=64 * 1024, ways=2, line=64):
    return SetAssociativeCache(size, ways, line, max_threads=4, name="t")


def test_geometry():
    c = make()
    assert c.num_sets == 64 * 1024 // (2 * 64) == 512


def test_miss_then_hit_same_line():
    c = make()
    assert c.access(0x1000) is False
    assert c.access(0x1008) is True  # same 64B line
    assert c.access(0x1040) is False  # next line


def test_lru_within_set():
    c = make(size=2 * 64 * 2, ways=2, line=64)  # 2 sets, 2 ways
    # Three lines mapping to set 0: stride = num_sets * line = 128.
    a, b, d = 0x0, 0x100, 0x200
    c.access(a)
    c.access(b)
    c.access(a)  # refresh a
    c.access(d)  # evicts b
    assert c.probe(a)
    assert not c.probe(b)
    assert c.probe(d)


def test_capacity_never_exceeded():
    c = make(size=4096, ways=2, line=64)
    for i in range(1000):
        c.access(i * 64)
    assert c.occupancy() <= 4096 // 64


def test_per_thread_stats():
    c = make()
    c.access(0x1000, thread=1)
    c.access(0x1000, thread=1)
    c.access(0x2000, thread=2)
    assert c.stats.per_thread_accesses[1] == 2
    assert c.stats.per_thread_misses[1] == 1
    assert c.stats.per_thread_misses[2] == 1
    assert c.stats.miss_rate == pytest.approx(2 / 3)


def test_probe_does_not_allocate():
    c = make()
    assert c.probe(0x1000) is False
    assert c.probe(0x1000) is False
    assert c.stats.accesses == 0


def test_invalidate_all():
    c = make()
    c.access(0x1000)
    c.invalidate_all()
    assert not c.probe(0x1000)
    assert c.occupancy() == 0


def test_reset_stats_keeps_contents():
    c = make()
    c.access(0x1000)
    c.reset_stats()
    assert c.stats.accesses == 0
    assert c.probe(0x1000)


def test_validation():
    with pytest.raises(ValueError):
        SetAssociativeCache(1000, 2, 64)  # bad set count
    with pytest.raises(ValueError):
        SetAssociativeCache(64 * 1024, 2, 60)  # line not power of 2


def test_storage_bits_reasonable():
    c = make()
    bits = c.storage_bits()
    assert bits > 64 * 1024 * 8  # at least the data array
