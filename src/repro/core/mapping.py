"""Thread-to-pipeline mapping policies (§2.1 of the paper).

A *mapping* assigns every thread of a workload to one pipeline of the
configuration: ``mapping[thread_index] = pipeline_index``.

Three policies are reproduced:

* :func:`heuristic_mapping` — the paper's profile-based heuristic,
  implemented step-for-step (threads sorted by data-cache misses
  ascending, pipelines by width descending; the least-missing thread gets
  the widest pipeline to itself when contexts are plentiful);
* BEST / WORST — oracle policies: :func:`enumerate_mappings` generates
  every *distinct* mapping (deduplicating permutations of identical
  pipeline models) and the experiment driver simulates each, keeping the
  argmax/argmin. The enumeration excludes mappings that share a pipeline
  while a same-or-wider pipeline sits completely empty: such mappings are
  dominated (moving one of the sharing threads to the empty pipeline can
  only help), and their exclusion makes BEST = HEUR = WORST coincide for
  two-threaded workloads on homogeneous configurations, exactly as §5
  observes.
* :func:`random_mapping` / :func:`round_robin_mapping` — extra baselines
  for the mapping-policy ablation (not in the paper).
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from repro.core.config import MicroarchConfig

__all__ = [
    "Mapping",
    "heuristic_mapping",
    "enumerate_mappings",
    "scan_mappings",
    "select_mappings",
    "count_mappings",
    "mapping_contexts_ok",
    "canonical_mapping",
    "random_mapping",
    "round_robin_mapping",
    "describe_mapping",
]

Mapping = Tuple[int, ...]


def mapping_contexts_ok(config: MicroarchConfig, mapping: Sequence[int]) -> bool:
    """True when no pipeline hosts more threads than it has contexts."""
    loads = [0] * len(config.pipelines)
    for p in mapping:
        if not 0 <= p < len(config.pipelines):
            return False
        loads[p] += 1
    if config.is_monolithic:
        return loads[0] <= config.contexts_for(len(mapping))
    return all(n <= config.pipelines[i].contexts for i, n in enumerate(loads))


def _pipeline_order(config: MicroarchConfig) -> List[int]:
    """Pipelines sorted by width descending (ties by index: stable)."""
    return sorted(range(len(config.pipelines)), key=lambda i: -config.pipelines[i].width)


def heuristic_mapping(
    config: MicroarchConfig, dcache_misses: Sequence[float]
) -> Mapping:
    """The paper's profile-based heuristic (§2.1), step for step.

    Parameters
    ----------
    config:
        Target microarchitecture.
    dcache_misses:
        Profiled data-cache miss count (or MPKI) per thread, in workload
        order.

    Returns
    -------
    mapping:
        ``mapping[thread] = pipeline`` tuple.

    Raises
    ------
    ValueError
        If the workload does not fit the configuration's contexts.
    """
    num_threads = len(dcache_misses)
    if num_threads == 0:
        raise ValueError("empty workload")
    if num_threads > config.contexts_for(num_threads):
        raise ValueError(
            f"{num_threads} threads exceed the {config.contexts_for(num_threads)} "
            f"contexts of {config.name}"
        )
    if config.is_monolithic:
        return (0,) * num_threads

    # Step 1: arrange threads by misses, fewest first.
    t_list: List[int] = sorted(range(num_threads), key=lambda t: (dcache_misses[t], t))
    # Step 2: arrange pipelines by width, widest first.
    p_list: List[int] = _pipeline_order(config)
    free = {i: config.pipelines[i].contexts for i in range(len(config.pipelines))}
    total_contexts = config.total_contexts

    mapping = [-1] * num_threads
    first_assignment = True
    while t_list:
        # Step 3: map the first thread in T to the first pipeline in P.
        t = t_list[0]
        p = p_list[0]
        mapping[t] = p
        free[p] -= 1
        # Step 4: on the first assignment, when contexts outnumber threads,
        # dedicate the widest pipeline to this (best-behaved) thread.
        if first_assignment and total_contexts > num_threads:
            p_list.pop(0)
        first_assignment = False
        # Step 5: remove the thread.
        t_list.pop(0)
        # Step 6: drop the pipeline once its contexts are exhausted.
        if p_list and free[p_list[0]] == 0:
            p_list.pop(0)
        # Step 7: loop while threads remain.
        if t_list and not p_list:
            raise ValueError(
                f"heuristic ran out of pipelines mapping {num_threads} threads "
                f"onto {config.name}"
            )
    return tuple(mapping)


def canonical_mapping(config: MicroarchConfig, mapping: Sequence[int]) -> Tuple:
    """Canonical form under permutations of identical pipeline models.

    Two mappings are equivalent iff, for every pipeline *model*, the
    multiset of thread-sets hosted by pipelines of that model matches.
    """
    groups: Dict[str, List[Tuple[int, ...]]] = {}
    per_pipe: List[List[int]] = [[] for _ in config.pipelines]
    for t, p in enumerate(mapping):
        per_pipe[p].append(t)
    for i, model in enumerate(config.pipelines):
        groups.setdefault(model.name, []).append(tuple(per_pipe[i]))
    return tuple((name, tuple(sorted(sets))) for name, sets in sorted(groups.items()))


def _wasteful(config: MicroarchConfig, mapping: Sequence[int]) -> bool:
    """True when some pipeline hosts >= 2 threads while a same-or-wider
    pipeline is empty (a dominated mapping, excluded from the oracle)."""
    loads = [0] * len(config.pipelines)
    for p in mapping:
        loads[p] += 1
    for i, li in enumerate(loads):
        if li >= 2:
            wi = config.pipelines[i].width
            for j, lj in enumerate(loads):
                if lj == 0 and config.pipelines[j].width >= wi:
                    return True
    return False


#: One oracle candidate: ``(canonical key, mapping)``.
Candidate = Tuple[Tuple, Mapping]


def _fitting_assignments(
    config: MicroarchConfig, num_threads: int
) -> Iterator[Mapping]:
    """Every assignment :func:`mapping_contexts_ok` accepts, in
    :func:`itertools.product` order: a depth-first walk that never
    descends into a pipeline whose contexts are full."""
    if config.is_monolithic:
        caps = [config.contexts_for(num_threads)]
    else:
        caps = [p.contexts for p in config.pipelines]
    loads = [0] * len(caps)
    assignment = [0] * num_threads

    def walk(t: int) -> Iterator[Mapping]:
        if t == num_threads:
            yield tuple(assignment)
            return
        for p, cap in enumerate(caps):
            if loads[p] < cap:
                loads[p] += 1
                assignment[t] = p
                yield from walk(t + 1)
                loads[p] -= 1

    return walk(0)


def scan_mappings(
    config: MicroarchConfig, num_threads: int, include_wasteful: bool = False
) -> List[Candidate]:
    """The oracle's candidate scan: one mapping per canonical class.

    Walks the assignments that fit the contexts in
    :func:`itertools.product` order, drops dominated ones (unless
    ``include_wasteful``), and pairs the first of each
    :func:`canonical_mapping` class with its key. This is the expensive
    half of :func:`enumerate_mappings` and depends only on its three
    arguments, so a sweep over many workloads scans each (config, thread
    count) once and hands the list to :func:`select_mappings` per
    workload.
    """
    seen = set()
    scan: List[Candidate] = []
    for assignment in _fitting_assignments(config, num_threads):
        if not include_wasteful and _wasteful(config, assignment):
            continue
        key = canonical_mapping(config, assignment)
        if key in seen:
            continue
        seen.add(key)
        scan.append((key, assignment))
    return scan


def select_mappings(
    config: MicroarchConfig,
    num_threads: int,
    scan: Sequence[Candidate],
    max_mappings: int | None = None,
    seed: int = 0,
    must_include: Iterable[Mapping] = (),
) -> List[Mapping]:
    """The oracle's mapping list from a :func:`scan_mappings` scan.

    ``must_include`` mappings come first (one per class), then the scan's
    mappings whose class they do not already cover, in scan order. When
    that exceeds ``max_mappings`` a deterministic sample is returned that
    still contains every ``must_include`` mapping (so the oracle is never
    worse than the heuristic it brackets).
    """
    forced: List[Mapping] = []
    forced_keys = set()
    # must_include mappings are honored unconditionally: the paper's
    # heuristic can produce a dominated mapping for thread counts the
    # paper never uses (e.g. 3 threads on 3M4 share a pipeline while one
    # sits empty), and the oracle must still bracket it.
    for m in must_include:
        if not mapping_contexts_ok(config, m):
            raise ValueError(f"must_include mapping {m} violates contexts")
        key = canonical_mapping(config, m)
        if key not in forced_keys:
            forced_keys.add(key)
            forced.append(tuple(m))
    pool = [m for key, m in scan if key not in forced_keys]
    if max_mappings is not None and len(forced) + len(pool) > max_mappings:
        rng = random.Random(f"mappings:{config.name}:{num_threads}:{seed}")
        take = max(0, max_mappings - len(forced))
        pool = rng.sample(pool, min(take, len(pool)))
    return forced + pool


def enumerate_mappings(
    config: MicroarchConfig,
    num_threads: int,
    include_wasteful: bool = False,
    max_mappings: int | None = None,
    seed: int = 0,
    must_include: Iterable[Mapping] = (),
) -> List[Mapping]:
    """All distinct thread-to-pipeline mappings for the oracle policies.

    Candidate assignments are filtered by context capacity, deduplicated
    by :func:`canonical_mapping`, and (unless ``include_wasteful``)
    dominated mappings are dropped (:func:`scan_mappings`). When the
    distinct count exceeds ``max_mappings`` a deterministic sample is
    returned that always contains every mapping in ``must_include``
    (:func:`select_mappings`).
    """
    if config.is_monolithic:
        return [(0,) * num_threads]
    scan = scan_mappings(config, num_threads, include_wasteful)
    return select_mappings(config, num_threads, scan, max_mappings, seed,
                           must_include)


def count_mappings(
    config: MicroarchConfig, num_threads: int, include_wasteful: bool = False
) -> int:
    """Number of distinct mappings the oracle would consider."""
    return len(enumerate_mappings(config, num_threads, include_wasteful))


def random_mapping(config: MicroarchConfig, num_threads: int, seed: int = 0) -> Mapping:
    """A uniformly random valid mapping (ablation baseline)."""
    options = enumerate_mappings(config, num_threads, include_wasteful=False)
    rng = random.Random(f"random-map:{config.name}:{num_threads}:{seed}")
    return rng.choice(options)


def round_robin_mapping(config: MicroarchConfig, num_threads: int) -> Mapping:
    """Profile-blind round-robin over pipelines (widest first), skipping
    full pipelines (ablation baseline)."""
    if config.is_monolithic:
        return (0,) * num_threads
    order = _pipeline_order(config)
    free = {i: config.pipelines[i].contexts for i in order}
    mapping: List[int] = []
    cursor = 0
    for _ in range(num_threads):
        for step in range(len(order)):
            p = order[(cursor + step) % len(order)]
            if free[p] > 0:
                free[p] -= 1
                mapping.append(p)
                cursor = (cursor + step + 1) % len(order)
                break
        else:
            raise ValueError("workload exceeds total contexts")
    return tuple(mapping)


def describe_mapping(
    config: MicroarchConfig, mapping: Sequence[int], thread_names: Sequence[str]
) -> str:
    """Human-readable 'pipeline <- threads' rendering."""
    per_pipe: List[List[str]] = [[] for _ in config.pipelines]
    for t, p in enumerate(mapping):
        per_pipe[p].append(thread_names[t])
    parts = []
    for i, model in enumerate(config.pipelines):
        names = ",".join(per_pipe[i]) if per_pipe[i] else "-"
        parts.append(f"{model.name}[{i}]<-{names}")
    return "  ".join(parts)
