"""Unit tests: the paper's 7-step heuristic and the oracle enumeration."""

import functools
import random
from collections import Counter
from itertools import product

import pytest

import repro.experiments.performance as performance
from repro.core.config import (
    HETEROGENEOUS_CONFIG_NAMES,
    HOMOGENEOUS_CONFIG_NAMES,
    STANDARD_CONFIG_NAMES,
    get_config,
)
from repro.core.mapping import (
    _wasteful,
    canonical_mapping,
    count_mappings,
    describe_mapping,
    enumerate_mappings,
    heuristic_mapping,
    mapping_contexts_ok,
    random_mapping,
    round_robin_mapping,
)
from repro.trace.profiling import profile_benchmark
from repro.workloads.definitions import WORKLOAD_NAMES, WORKLOADS, get_workload


def pipes(cfg_name):
    return [p.name for p in get_config(cfg_name).pipelines]


# ------------------------------------------------------------- heuristic


def test_heuristic_monolithic_trivial():
    cfg = get_config("M8")
    assert heuristic_mapping(cfg, [5.0, 1.0]) == (0, 0)


def test_heuristic_two_threads_hetero():
    """Fewest misses -> widest pipeline; contexts > threads, so the widest
    pipeline is dedicated (step 4) and the other thread takes the next."""
    cfg = get_config("2M4+2M2")  # pipelines: M4,M4,M2,M2 / contexts 2,2,1,1
    m = heuristic_mapping(cfg, [10.0, 1.0])
    # thread 1 (1.0 misses) -> pipeline 0 (M4, dedicated);
    # thread 0 (10.0) -> pipeline 1 (the other M4).
    assert m == (1, 0)


def test_heuristic_four_threads_2m4_2m2():
    cfg = get_config("2M4+2M2")
    # misses ascending: t3 < t2 < t1 < t0
    m = heuristic_mapping(cfg, [40.0, 30.0, 20.0, 10.0])
    # Step 4: 6 contexts > 4 threads -> t3 alone on M4[0].
    # Then t2 -> M4[1], t1 -> M4[1] (fills it), t0 -> M2[2].
    assert m == (2, 1, 1, 0)


def test_heuristic_six_threads_big_config():
    cfg = get_config("1M6+2M4+2M2")  # M6,M4,M4,M2,M2 / contexts 2,2,2,1,1
    m = heuristic_mapping(cfg, [60, 50, 40, 30, 20, 10])
    # t5 -> M6 dedicated; t4,t3 -> M4[1]; t2,t1 -> M4[2]; t0 -> M2[3].
    assert m == (3, 2, 2, 1, 1, 0)


def test_heuristic_no_dedication_when_contexts_equal_threads():
    cfg = get_config("1M6+2M4+2M2")  # 8 contexts
    m = heuristic_mapping(cfg, list(range(8, 0, -1)))
    # 8 threads == 8 contexts: step 4 does not fire; M6 hosts two threads.
    assert sum(1 for p in m if p == 0) == 2


def test_heuristic_tie_break_stable():
    cfg = get_config("2M4+2M2")
    m1 = heuristic_mapping(cfg, [1.0, 1.0])
    m2 = heuristic_mapping(cfg, [1.0, 1.0])
    assert m1 == m2
    assert m1 == (0, 1)  # workload order breaks the tie


def test_heuristic_overflow_raises():
    cfg = get_config("2M4+2M2")
    with pytest.raises(ValueError):
        heuristic_mapping(cfg, [1.0] * 7)
    with pytest.raises(ValueError):
        heuristic_mapping(cfg, [])


# ------------------------------------------------------------ enumeration


def test_monolithic_single_mapping():
    cfg = get_config("M8")
    assert enumerate_mappings(cfg, 4) == [(0, 0, 0, 0)]


def test_two_threads_homogeneous_single_class():
    """§5: on homogeneous configs the 2-thread BEST/HEUR/WORST coincide —
    there must be exactly one distinct (non-dominated) mapping."""
    for name in ("3M4", "4M4"):
        assert count_mappings(get_config(name), 2) == 1


def test_two_threads_hetero_classes():
    cfg = get_config("2M4+2M2")
    maps = enumerate_mappings(cfg, 2)
    # {M4,M4}, {t0 M4, t1 M2}, {t0 M2, t1 M4}, {M2,M2}
    assert len(maps) == 4


def test_enumeration_respects_contexts():
    cfg = get_config("2M4+2M2")
    for m in enumerate_mappings(cfg, 6):
        assert mapping_contexts_ok(cfg, m)


def test_enumeration_contains_heuristic():
    cfg = get_config("1M6+2M4+2M2")
    heur = heuristic_mapping(cfg, [60, 50, 40, 30, 20, 10])
    maps = enumerate_mappings(cfg, 6, max_mappings=10, must_include=[heur])
    keys = {canonical_mapping(cfg, m) for m in maps}
    assert canonical_mapping(cfg, heur) in keys
    assert len(maps) <= 10


def test_canonical_dedup_symmetric_pipelines():
    cfg = get_config("2M4+2M2")
    # Swapping the two M4s yields the same canonical class.
    assert canonical_mapping(cfg, (0, 1)) == canonical_mapping(cfg, (1, 0))
    # Mapping to an M4 vs an M2 differs.
    assert canonical_mapping(cfg, (0, 2)) != canonical_mapping(cfg, (0, 1))


def test_wasteful_mappings_excluded_by_default():
    cfg = get_config("3M4")
    maps = enumerate_mappings(cfg, 2)
    # Sharing one M4 while the others are empty is dominated.
    assert all(len(set(m)) == 2 for m in maps)
    with_wasteful = enumerate_mappings(cfg, 2, include_wasteful=True)
    assert len(with_wasteful) > len(maps)


def test_mapping_counts_hand_checked():
    # 4 threads on 3M4 (caps 2,2,2): occupancy (2,1,1): choose the pair: 6.
    assert count_mappings(get_config("3M4"), 4) == 6
    # 6 threads on 3M4: perfect pairing of 6 into 3 unordered pairs: 15.
    assert count_mappings(get_config("3M4"), 6) == 15
    # 4 threads on 4M4: only (1,1,1,1) survives domination: 1 class.
    assert count_mappings(get_config("4M4"), 4) == 1


def test_sampling_cap_deterministic():
    cfg = get_config("1M6+2M4+2M2")
    a = enumerate_mappings(cfg, 6, max_mappings=12, seed=0)
    b = enumerate_mappings(cfg, 6, max_mappings=12, seed=0)
    assert a == b
    c = enumerate_mappings(cfg, 6, max_mappings=12, seed=1)
    assert a != c  # different sample (astronomically unlikely to collide)


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_heuristic_places_each_workload_by_profiled_misses(workload):
    """§2.1 on every paper workload and clustered configuration: a thread
    with fewer profiled misses never sits on a narrower pipeline than one
    with more; with spare contexts the widest pipeline holds only the
    least-missing thread; and every thread gets a context."""
    w = get_workload(workload)
    misses = [profile_benchmark(b).misses_per_kilo_instruction
              for b in w.benchmarks]
    fewest = min(range(w.num_threads), key=lambda t: (misses[t], t))
    for name in HOMOGENEOUS_CONFIG_NAMES + HETEROGENEOUS_CONFIG_NAMES:
        cfg = get_config(name)
        if w.num_threads > cfg.total_contexts:
            continue
        m = heuristic_mapping(cfg, misses)
        width = [cfg.pipelines[p].width for p in m]
        assert mapping_contexts_ok(cfg, m), name
        for a in range(w.num_threads):
            for b in range(w.num_threads):
                if misses[a] < misses[b]:
                    assert width[a] >= width[b], (name, a, b)
        if cfg.total_contexts > w.num_threads:
            assert [t for t, p in enumerate(m) if p == 0] == [fewest], name


# ------------------------------------------ scan-once equivalence


@functools.lru_cache(maxsize=None)
def _reference_scan(cfg_name, num_threads, must_include):
    """The brute-force scan: every ``product`` assignment, with the forced
    mappings' classes seeded into the dedup set; returns the uncapped
    list and how many forced mappings lead it."""
    config = get_config(cfg_name)
    seen = set()
    result = []
    for m in must_include:
        key = canonical_mapping(config, m)
        if key not in seen:
            seen.add(key)
            result.append(tuple(m))
    forced_count = len(result)
    for assignment in product(range(len(config.pipelines)), repeat=num_threads):
        if not mapping_contexts_ok(config, assignment):
            continue
        if _wasteful(config, assignment):
            continue
        key = canonical_mapping(config, assignment)
        if key in seen:
            continue
        seen.add(key)
        result.append(tuple(assignment))
    return result, forced_count


def _reference_enumerate(config, num_threads, max_mappings=None,
                         must_include=()):
    """The enumeration as one brute-force scan per (config, thread count,
    forced mappings) followed by the seeded sample."""
    if config.is_monolithic:
        return [(0,) * num_threads]
    result, forced_count = _reference_scan(config.name, num_threads,
                                           tuple(must_include))
    if max_mappings is not None and len(result) > max_mappings:
        rng = random.Random(f"mappings:{config.name}:{num_threads}:0")
        forced = result[:forced_count]
        pool = result[forced_count:]
        take = max(0, max_mappings - forced_count)
        result = forced + rng.sample(pool, min(take, len(pool)))
    return result


@pytest.mark.parametrize("cfg_name", STANDARD_CONFIG_NAMES)
def test_enumeration_matches_brute_force_reference(cfg_name):
    """enumerate_mappings (one scan, then a per-call selection) returns
    exactly the brute-force list — same order, same sample — for every
    thread count that fits, uncapped and at the default cap of 36, with
    and without each workload's heuristic mapping forced in."""
    cfg = get_config(cfg_name)
    for n in range(1, cfg.total_contexts + 1):
        for cap in (None, 36):
            got = enumerate_mappings(cfg, n, max_mappings=cap)
            assert got == _reference_enumerate(cfg, n, max_mappings=cap)
    for w in WORKLOADS.values():
        n = w.num_threads
        if n > cfg.contexts_for(n):
            continue
        misses = [profile_benchmark(b).misses_per_kilo_instruction
                  for b in w.benchmarks]
        heur = heuristic_mapping(cfg, misses)
        for cap in (None, 36):
            kw = dict(max_mappings=cap, must_include=[heur])
            got = enumerate_mappings(cfg, n, **kw)
            assert got == _reference_enumerate(cfg, n, **kw), (w.name, cap)


def test_sweep_scans_each_config_thread_count_once(monkeypatch, tiny_scale):
    """One run_performance_experiment scans each (config, thread count)
    once, however many workloads of that size it plans."""
    scans = Counter()
    real_scan = performance.scan_mappings

    def counting_scan(config, num_threads, include_wasteful=False):
        scans[(config.name, num_threads)] += 1
        return real_scan(config, num_threads, include_wasteful)

    monkeypatch.setattr(performance, "scan_mappings", counting_scan)
    performance.clear_result_cache()
    try:
        performance.run_performance_experiment(
            ["2M4+2M2", "3M4"], ["2W1", "2W4", "4W1", "4W6"], tiny_scale,
            workers=1,
        )
    finally:
        performance.clear_result_cache()
    assert scans == {("2M4+2M2", 2): 1, ("2M4+2M2", 4): 1,
                     ("3M4", 2): 1, ("3M4", 4): 1}


# ------------------------------------------------------- blind baselines


def test_round_robin_spreads():
    cfg = get_config("2M4+2M2")
    m = round_robin_mapping(cfg, 4)
    assert mapping_contexts_ok(cfg, m)
    assert len(set(m)) == 4  # one thread per pipeline first pass


def test_random_mapping_valid_and_deterministic():
    cfg = get_config("1M6+2M4+2M2")
    m1 = random_mapping(cfg, 4, seed=3)
    m2 = random_mapping(cfg, 4, seed=3)
    assert m1 == m2
    assert mapping_contexts_ok(cfg, m1)


def test_describe_mapping_smoke():
    cfg = get_config("2M4+2M2")
    s = describe_mapping(cfg, (0, 2), ["eon", "mcf"])
    assert "eon" in s and "mcf" in s and "M2" in s
