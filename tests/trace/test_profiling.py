"""Unit tests: the heuristic's profile pass."""

import pytest

from repro.isa.opcodes import OP_LOAD, OP_STORE
from repro.memory.hierarchy import MemoryHierarchy
from repro.trace.benchmarks import BENCHMARK_NAMES, ILP_BENCHMARKS, MEM_BENCHMARKS
from repro.trace.profiling import (
    PROFILE_LENGTH,
    DCacheProfile,
    clear_profile_cache,
    profile_benchmark,
)


def _per_entry_profile(name, entries):
    """The profile pass as a walk over the generator's tuples: warm the
    L1D with every load/store address, then count one DTLB -> L1D ->
    (on a miss) L2 probe per load and store."""
    mem = MemoryHierarchy(max_threads=1)
    for op, _dest, _src1, _src2, addr, _taken, _pc in entries:
        if op in (OP_LOAD, OP_STORE):
            mem.l1d.access(addr, 0)
    l1, l2, acc = mem.l1d.stats.misses, mem.l2.stats.misses, mem.l1d.stats.accesses
    for op, _dest, _src1, _src2, addr, _taken, _pc in entries:
        if op in (OP_LOAD, OP_STORE):
            mem.dtlb.access(addr, 0)
            if not mem.l1d.access(addr, 0):
                mem.l2.access(addr, 0)
    return DCacheProfile(
        benchmark=name,
        instructions=len(entries),
        accesses=mem.l1d.stats.accesses - acc,
        l1d_misses=mem.l1d.stats.misses - l1,
        l2_misses=mem.l2.stats.misses - l2,
    )


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_column_profile_equals_per_entry_walk(name, generated_stream):
    """The pass over the op/address columns counts exactly what a
    per-entry walk of the generated tuples counts, at the default
    window."""
    clear_profile_cache()
    entries, _junk = generated_stream(name, PROFILE_LENGTH)
    assert profile_benchmark(name) == _per_entry_profile(name, entries)


def test_profile_deterministic_and_cached():
    clear_profile_cache()
    p1 = profile_benchmark("gzip", 5000)
    p2 = profile_benchmark("gzip", 5000)
    assert p1 is p2
    clear_profile_cache()
    p3 = profile_benchmark("gzip", 5000)
    assert p3.l1d_misses == p1.l1d_misses


def test_mem_class_misses_dominate_ilp():
    worst_ilp = max(
        profile_benchmark(b, 8000).misses_per_kilo_instruction for b in ILP_BENCHMARKS
    )
    best_mem = min(
        profile_benchmark(b, 8000).misses_per_kilo_instruction for b in MEM_BENCHMARKS
    )
    assert best_mem > worst_ilp


def test_mem_internal_ordering():
    """The heuristic's sort key must order mcf > twolf > vpr > perlbmk."""
    mpki = {
        b: profile_benchmark(b, 12_000).misses_per_kilo_instruction
        for b in ("mcf", "twolf", "vpr", "perlbmk")
    }
    assert mpki["mcf"] > mpki["twolf"] > mpki["vpr"] > mpki["perlbmk"]


def test_profile_fields_consistent():
    p = profile_benchmark("vpr", 6000)
    assert p.instructions == 6000
    assert 0 <= p.l1d_misses <= p.accesses
    assert p.l2_misses <= p.l1d_misses
    assert p.l1d_miss_rate == pytest.approx(p.l1d_misses / p.accesses)

