"""Set-associative, write-allocate cache model.

Timing-directed rather than data-carrying: the simulator only needs
hit/miss decisions, so lines store tags only. LRU is exact (2–4 ways in
every configuration of the paper, so a recency list per set costs
nothing). The paper's caches have 8 banks each; no bank conflict is
modelled, so the bank count is not a parameter.

The hot path is :meth:`SetAssociativeCache.access`: one shift, one mask,
one short ``list.index`` scan per probe. Per the optimization guide the
structure-of-lists layout avoids allocating per-line objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

__all__ = ["SetAssociativeCache", "CacheStats"]


@dataclass(slots=True)
class CacheStats:
    """Aggregate counters for one cache instance."""

    accesses: int = 0
    misses: int = 0
    evictions: int = 0
    per_thread_accesses: List[int] = field(default_factory=list)
    per_thread_misses: List[int] = field(default_factory=list)

    @property
    def hits(self) -> int:
        return self.accesses - self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class SetAssociativeCache:
    """Tag-only set-associative cache with exact LRU.

    Parameters
    ----------
    size_bytes:
        Total capacity.
    ways:
        Associativity.
    line_bytes:
        Line size (power of two).
    max_threads:
        Sizes the per-thread statistic arrays.
    name:
        Used in reports.
    """

    __slots__ = (
        "name",
        "size_bytes",
        "ways",
        "line_bytes",
        "num_sets",
        "_line_shift",
        "_set_mask",
        "_tag_shift",
        "_tags",
        "_base",
        "stats",
    )

    def __init__(
        self,
        size_bytes: int,
        ways: int,
        line_bytes: int = 64,
        max_threads: int = 8,
        name: str = "cache",
    ) -> None:
        if line_bytes & (line_bytes - 1):
            raise ValueError("line_bytes must be a power of two")
        num_sets = size_bytes // (ways * line_bytes)
        if num_sets <= 0 or num_sets & (num_sets - 1):
            raise ValueError(
                f"size/ways/line combination gives invalid set count: {num_sets}"
            )
        self.name = name
        self.size_bytes = size_bytes
        self.ways = ways
        self.line_bytes = line_bytes
        self.num_sets = num_sets
        self._line_shift = line_bytes.bit_length() - 1
        self._set_mask = num_sets - 1
        self._tag_shift = num_sets.bit_length() - 1
        # _tags[set] is a recency-ordered list of tags (index 0 = MRU);
        # sets allocate lazily on first touch (None = not yet
        # materialized). A warm-state restore (:meth:`load_state`) is
        # copy-on-write: `_base` holds the shared, never-mutated snapshot
        # rows and a set copies its row the first time it is touched —
        # screening sweeps restore thousands of caches from one snapshot
        # and a short run touches only a fraction of the sets.
        self._tags: List[Optional[List[int]]] = [None] * num_sets
        self._base: Optional[List[List[int]]] = None
        self.stats = CacheStats(
            per_thread_accesses=[0] * max_threads,
            per_thread_misses=[0] * max_threads,
        )

    # -- hot path ------------------------------------------------------------
    #
    # Distinct threads are distinct address spaces: the line number is
    # scrambled with a per-thread constant (Fibonacci hashing) before the
    # set/tag split, modeling different physical frames — threads contend
    # for capacity but never falsely share lines.
    _THREAD_SALT = 2654435761

    def access(self, addr: int, thread: int = 0) -> bool:
        """Probe + fill: returns True on hit, False on miss (line filled)."""
        line = (addr >> self._line_shift) ^ (thread * self._THREAD_SALT)
        idx = line & self._set_mask
        tags = self._tags[idx]
        tag = line >> self._tag_shift
        st = self.stats
        st.accesses += 1
        st.per_thread_accesses[thread] += 1
        if tags is None:
            base = self._base
            tags = list(base[idx]) if base is not None else []
            self._tags[idx] = tags
        if tags:
            # MRU-first: the head hit is the overwhelmingly common case.
            if tags[0] == tag:
                return True
            if tag in tags:
                tags.remove(tag)
                tags.insert(0, tag)
                return True
        st.misses += 1
        st.per_thread_misses[thread] += 1
        if len(tags) >= self.ways:
            tags.pop()
            st.evictions += 1
        tags.insert(0, tag)
        return False

    def access_many(self, addrs, thread: int = 0, collect_misses: bool = False):
        """Batched :meth:`access` over an address sequence (warm-up path).

        Performs exactly the probe/fill/LRU sequence ``access`` would per
        address, with the loop constants hoisted and the statistics
        accumulated once — bit-identical final state and counters. When
        ``collect_misses`` is true, returns the missed addresses in order
        (the warm pass feeds them to the next cache level).
        """
        shift = self._line_shift
        set_mask = self._set_mask
        tag_shift = self._tag_shift
        salt = thread * self._THREAD_SALT
        all_tags = self._tags
        ways = self.ways
        accesses = 0
        misses: List[int] = []
        evictions = 0
        base = self._base
        for addr in addrs:
            line = (addr >> shift) ^ salt
            idx = line & set_mask
            tags = all_tags[idx]
            tag = line >> tag_shift
            accesses += 1
            if tags is None:
                tags = list(base[idx]) if base is not None else []
                all_tags[idx] = tags
            if tags:
                if tags[0] == tag:
                    continue
                if tag in tags:
                    tags.remove(tag)
                    tags.insert(0, tag)
                    continue
            misses.append(addr)
            if len(tags) >= ways:
                tags.pop()
                evictions += 1
            tags.insert(0, tag)
        st = self.stats
        st.accesses += accesses
        st.misses += len(misses)
        st.evictions += evictions
        st.per_thread_accesses[thread] += accesses
        st.per_thread_misses[thread] += len(misses)
        return misses if collect_misses else None

    def probe(self, addr: int, thread: int = 0) -> bool:
        """Non-allocating lookup (no LRU update, no statistics)."""
        line = (addr >> self._line_shift) ^ (thread * self._THREAD_SALT)
        idx = line & self._set_mask
        tags = self._tags[idx]
        if tags is None:
            base = self._base
            if base is None:
                return False
            tags = base[idx]
        return (line >> self._tag_shift) in tags

    # -- state snapshot (warm-state caching) -----------------------------------

    def dump_state(self) -> tuple:
        """Copy of (lines, stats) for exact restore via :meth:`load_state`.

        Untouched (lazily unallocated) sets dump as empty lists, so the
        snapshot shape is independent of how the contents were built.
        """
        st = self.stats
        base = self._base
        if base is None:
            lines = [t[:] if t is not None else [] for t in self._tags]
        else:
            lines = [
                t[:] if t is not None else list(base[i])
                for i, t in enumerate(self._tags)
            ]
        return (
            lines,
            (
                st.accesses,
                st.misses,
                st.evictions,
                st.per_thread_accesses[:],
                st.per_thread_misses[:],
            ),
        )

    def load_state(self, snap: tuple) -> None:
        """Restore a :meth:`dump_state` snapshot (exact contents + stats).

        O(1) in the number of sets: the snapshot rows are adopted as the
        shared copy-on-write base and individual sets copy out lazily on
        first touch. The snapshot itself is never mutated, so many caches
        can restore from one snapshot concurrently.
        """
        lines, (acc, miss, evic, pta, ptm) = snap
        self._tags = [None] * self.num_sets
        self._base = lines
        st = self.stats
        st.accesses = acc
        st.misses = miss
        st.evictions = evic
        st.per_thread_accesses = pta[:]
        st.per_thread_misses = ptm[:]

    # -- maintenance -----------------------------------------------------------

    def invalidate_all(self) -> None:
        """Drop every line (used between independent simulations)."""
        self._tags = [None] * self.num_sets
        self._base = None

    def occupancy(self) -> int:
        """Number of valid lines currently resident."""
        base = self._base
        if base is None:
            return sum(len(t) for t in self._tags if t is not None)
        return sum(
            len(t) if t is not None else len(base[i])
            for i, t in enumerate(self._tags)
        )

    def reset_stats(self) -> None:
        """Zero the counters without touching cache contents (used after a
        warm-up pass so measurements reflect steady state)."""
        st = self.stats
        st.accesses = 0
        st.misses = 0
        st.evictions = 0
        st.per_thread_accesses = [0] * len(st.per_thread_accesses)
        st.per_thread_misses = [0] * len(st.per_thread_misses)

    def storage_bits(self) -> int:
        """Data + tag storage in bits (for reporting; excluded from the
        paper's area model, which drops caches and the register file)."""
        tag_bits = 64 - self._line_shift - (self.num_sets.bit_length() - 1)
        return self.num_sets * self.ways * (self.line_bytes * 8 + tag_bits + 1)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{self.name}: {self.size_bytes >> 10}KB {self.ways}-way "
            f"{self.line_bytes}B lines>"
        )
