"""Unit tests: two-level hierarchy latency model (Table 1 conventions).

The probes return latencies only; hit/miss outcomes are read from the
caches' and TLBs' counters.
"""

import pytest

from repro.core.config import config_key_text
from repro.memory.hierarchy import MemoryHierarchy, MemoryParams


@pytest.fixture
def mem():
    return MemoryHierarchy(MemoryParams(), max_threads=2)


def _misses(mem):
    """(DTLB, L1D, L2, ITLB, L1I) miss counters."""
    return (mem.dtlb.misses, mem.l1d.stats.misses, mem.l2.stats.misses,
            mem.itlb.misses, mem.l1i.stats.misses)


def test_l1_hit_latency(mem):
    p = mem.params
    mem.load_latency(0x1000, 0)  # fill (may miss TLB/L1)
    before = _misses(mem)
    latency = mem.load_latency(0x1000, 0)
    assert _misses(mem) == before  # L1 and TLB hit
    assert latency == p.l1_latency == 3


def test_l2_hit_latency(mem):
    p = mem.params
    mem.load_latency(0x1000, 0)  # L1+L2+TLB warm
    # Evict from L1 (2-way): two other lines in the same set.
    stride = mem.l1d.num_sets * 64
    mem.load_latency(0x1000 + stride, 0)
    mem.load_latency(0x1000 + 2 * stride, 0)
    l1, l2 = mem.l1d.stats.misses, mem.l2.stats.misses
    latency = mem.load_latency(0x1000, 0)
    assert mem.l1d.stats.misses == l1 + 1  # L1 miss...
    assert mem.l2.stats.misses == l2  # ...L2 hit
    assert latency == p.l1_latency + p.l1_miss_penalty == 25


def test_memory_latency_cold(mem):
    p = mem.params
    mem.dtlb.access(0x50_0000, 0)  # pre-touch the page: isolate cache path
    latency = mem.load_latency(0x50_0000, 0)
    assert mem.l1d.stats.misses == 1 and mem.l2.stats.misses == 1
    assert latency == p.l1_latency + p.l1_miss_penalty + p.memory_latency == 275


def test_tlb_miss_penalty(mem):
    p = mem.params
    latency = mem.load_latency(0x900_0000, 0)
    assert mem.dtlb.misses == 1
    assert latency >= p.tlb_miss_penalty


def test_store_fills_caches_without_stall(mem):
    assert mem.retire_store(0x1000, 0) is None  # no stall reaches the pipeline
    assert mem.dtlb.accesses == 1
    assert mem.l1d.probe(0x1000)
    assert mem.l2.probe(0x1000)  # write-allocate through the L1 miss


def test_store_hit_stays_in_l1(mem):
    mem.retire_store(0x1000, 0)
    l2_accesses = mem.l2.stats.accesses
    mem.retire_store(0x1000, 0)
    assert mem.l1d.stats.hits == 1
    assert mem.l2.stats.accesses == l2_accesses  # no L2 probe on an L1 hit


def test_fetch_hit_is_free(mem):
    mem.fetch_latency(0x40_0000, 0)
    before = _misses(mem)
    assert mem.fetch_latency(0x40_0000, 0) == 0
    assert _misses(mem) == before


def test_fetch_miss_penalties(mem):
    p = mem.params
    mem.itlb.access(0x40_0000, 0)
    latency = mem.fetch_latency(0x40_0000, 0)
    assert mem.l1i.stats.misses == 1 and mem.l2.stats.misses == 1
    assert latency == p.l1_miss_penalty + p.memory_latency


def test_fetch_tlb_miss_penalty(mem):
    p = mem.params
    latency = mem.fetch_latency(0x40_0000, 0)
    assert mem.itlb.misses == 1
    assert latency == p.tlb_miss_penalty + p.l1_miss_penalty + p.memory_latency


def test_flush_threshold_matches_paper(mem):
    # FLUSH declares an L2 miss when a load outlives L1+L2 access time.
    assert mem.params.flush_threshold == 3 + 12


def test_shared_l2_between_i_and_d(mem):
    # An instruction fetch warms L2 for a subsequent data miss to the
    # same line (unified L2).
    mem.fetch_latency(0x777_0000, 0)
    mem.dtlb.access(0x777_0000, 0)
    l2 = mem.l2.stats.misses
    latency = mem.load_latency(0x777_0000, 0)
    assert mem.l2.stats.misses == l2  # L2 hit
    assert latency == mem.params.l1_latency + mem.params.l1_miss_penalty


def test_threads_share_capacity(mem):
    mem.load_latency(0x1000, 0)
    mem.load_latency(0x1000, 1)  # same address, different address space
    # thread-tagged: no false sharing
    assert mem.l1d.stats.per_thread_misses == [1, 1]


def test_reset(mem):
    mem.load_latency(0x1000, 0)
    mem.reset()
    assert mem.l1d.occupancy() == 0
    assert mem.l1d.stats.accesses == 1  # reset() keeps stats...
    mem.reset_stats()
    assert mem.l1d.stats.accesses == 0


def test_dcache_misses_per_thread(mem):
    mem.load_latency(0x1000, 1)
    assert mem.dcache_misses(1) == 1
    assert mem.dcache_misses(0) == 0


def test_params_key_text_keeps_the_retired_banks():
    """Keys hash a config object's key text, which keeps the paper's 8
    banks after each cache's ways although no bank count is a
    parameter, and it shows every field's value."""
    assert config_key_text(MemoryParams()) == (
        "MemoryParams(l1i_size=65536, l1i_ways=2, l1i_banks=8, "
        "l1d_size=65536, l1d_ways=2, l1d_banks=8, l2_size=524288, "
        "l2_ways=2, l2_banks=8, line_bytes=64, l1_latency=3, "
        "l1_miss_penalty=22, l2_latency=12, memory_latency=250, "
        "itlb_entries=48, dtlb_entries=128, tlb_miss_penalty=300, "
        "page_bytes=8192)"
    )
    assert "l1d_ways=4, l1d_banks=8," in config_key_text(MemoryParams(l1d_ways=4))
    with pytest.raises(TypeError):
        MemoryParams(l1i_banks=8)
