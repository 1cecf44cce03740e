"""Profile runs feeding the heuristic mapping policy.

Section 2.1 of the paper: "By means of profile information, the active
threads are arranged by the number of data cache misses and assigned to
the pipelines." This module is that profile pass — each benchmark's trace
is run alone through the L1D/L2 of the baseline memory hierarchy and its
data-cache misses counted. Results are memoized per (benchmark, length);
the profile window itself is not: it is read once, through
:func:`~repro.trace.stream.transient_trace`, and freed with the pass.

:class:`ProfileJob` is one profile pass as a runner job, and
:func:`ensure_profiles` memoizes a whole set of them computed as one
batch — how the Fig. 4/5 sweep profiles its benchmarks in the worker
pool instead of serially in the parent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar, Dict, Iterable, List, Sequence, Tuple

from repro.isa.opcodes import OP_LOAD, OP_STORE
from repro.memory.hierarchy import MemoryHierarchy, MemoryParams
from repro.trace.stream import transient_trace

__all__ = [
    "DCacheProfile",
    "ProfileJob",
    "profile_benchmark",
    "profile_workload",
    "ensure_profiles",
    "clear_profile_cache",
]

#: Profile window (instructions) when the caller names none.
PROFILE_LENGTH = 20_000


@dataclass(frozen=True)
class DCacheProfile:
    """Solo-run data-cache behaviour of one benchmark trace."""

    benchmark: str
    instructions: int
    accesses: int
    l1d_misses: int
    l2_misses: int

    @property
    def l1d_miss_rate(self) -> float:
        return self.l1d_misses / self.accesses if self.accesses else 0.0

    @property
    def misses_per_kilo_instruction(self) -> float:
        """L1D MPKI — the heuristic's sort key, normalized per instruction
        so different window lengths stay comparable."""
        return 1000.0 * self.l1d_misses / self.instructions if self.instructions else 0.0


_CACHE: Dict[Tuple[str, int], DCacheProfile] = {}


def profile_benchmark(
    name: str, length: int = PROFILE_LENGTH, params: MemoryParams | None = None
) -> DCacheProfile:
    """Run one benchmark's trace alone through the data-side hierarchy.

    The trace is streamed through once as cache warm-up and counted on a
    second pass — the paper's profiles are steady-state rates over 300M
    instructions, so the cold-start transient of our short windows must
    not contaminate the sort key.

    The window is read through :func:`~repro.trace.stream.
    transient_trace`, so it stays out of the process trace memo: no
    simulation shares it, and a pool worker would otherwise keep every
    window it profiled.
    """
    key = (name, length)
    if params is None and key in _CACHE:
        return _CACHE[key]
    trace = transient_trace(name, length)
    mem = MemoryHierarchy(params, max_threads=1)
    # Warm-up pass.
    for e in trace.entries:
        op = e[0]
        if op == OP_LOAD or op == OP_STORE:
            mem.l1d.access(e[4], 0)
    l1_before = mem.l1d.stats.misses
    l2_before = mem.l2.stats.misses
    acc_before = mem.l1d.stats.accesses
    # Measured pass.
    for e in trace.entries:
        op = e[0]
        if op == OP_LOAD:
            mem.load(e[4], 0)
        elif op == OP_STORE:
            mem.store(e[4], 0)
    prof = DCacheProfile(
        benchmark=name,
        instructions=trace.length,
        accesses=mem.l1d.stats.accesses - acc_before,
        l1d_misses=mem.l1d.stats.misses - l1_before,
        l2_misses=mem.l2.stats.misses - l2_before,
    )
    if params is None:
        _CACHE[key] = prof
    return prof


def profile_workload(
    benchmarks: List[str], length: int = PROFILE_LENGTH
) -> List[DCacheProfile]:
    """Profiles for every thread of a workload, in workload order."""
    return [profile_benchmark(b, length) for b in benchmarks]


@dataclass(frozen=True)
class ProfileJob:
    """``profile_benchmark(name)`` as a runner job (see
    :mod:`repro.runner.jobs`): it generates its own trace, so it has no
    trace needs for the runner to prepack."""

    name: str

    heavy: ClassVar[bool] = False

    def execute(self, cache=None) -> DCacheProfile:
        return profile_benchmark(self.name)

    def trace_manifest(self) -> Tuple:
        return ()


def ensure_profiles(
    names: Iterable[str],
    run: Callable[[Sequence[ProfileJob]], List[DCacheProfile]],
) -> None:
    """Memoize the profile of every benchmark in ``names`` not profiled
    yet, computed as one batch of :class:`ProfileJob` through ``run``
    (e.g. :meth:`~repro.runner.batch.BatchRunner.run`); later
    ``profile_benchmark(name)`` calls for them are memo hits."""
    missing = [
        n for n in dict.fromkeys(names) if (n, PROFILE_LENGTH) not in _CACHE
    ]
    if missing:
        profiles = run([ProfileJob(n) for n in missing])
        for name, prof in zip(missing, profiles):
            _CACHE[(name, PROFILE_LENGTH)] = prof


def clear_profile_cache() -> None:
    """Drop memoized profiles (tests)."""
    _CACHE.clear()
