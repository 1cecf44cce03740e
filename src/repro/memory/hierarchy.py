"""Two-level cache hierarchy shared by every pipeline.

Latency model (Table 1, and the conventions spelled out in DESIGN.md):

* instruction or data access hitting L1 — ``l1_latency`` (3 cycles);
* L1 miss, L2 hit — ``l1_latency + l1_miss_penalty`` (3 + 22 = 25 cycles
  total; the paper's "miss penalty 22" is the L2 service time seen by L1);
* L2 miss — the above plus ``memory_latency`` (250 cycles);
* TLB miss on either path adds ``tlb_miss_penalty`` (300 cycles).

The separate ``l2_latency`` (12 cycles) is the L2 *probe* time; it sets
the FLUSH fetch-policy trigger threshold (``l1_latency + l2_latency``):
any load outstanding longer than that is assumed to have missed in L2
(Tullsen & Brown's rule adopted by the paper).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.memory.cache import SetAssociativeCache
from repro.memory.tlb import TranslationBuffer

__all__ = ["MemoryParams", "MemoryHierarchy"]


@dataclass(frozen=True)
class MemoryParams:
    """Every memory-system parameter from Table 1 (overridable for studies)
    but the 8 banks per cache: no bank conflict is modelled, and keys keep
    their text through ``repro.core.config.RETIRED_KEY_TEXT``."""

    l1i_size: int = 64 * 1024
    l1i_ways: int = 2
    l1d_size: int = 64 * 1024
    l1d_ways: int = 2
    l2_size: int = 512 * 1024
    l2_ways: int = 2
    line_bytes: int = 64
    l1_latency: int = 3
    l1_miss_penalty: int = 22
    l2_latency: int = 12
    memory_latency: int = 250
    itlb_entries: int = 48
    dtlb_entries: int = 128
    tlb_miss_penalty: int = 300
    page_bytes: int = 8192

    @property
    def flush_threshold(self) -> int:
        """Cycles after which FLUSH declares an outstanding load an L2 miss."""
        return self.l1_latency + self.l2_latency


class MemoryHierarchy:
    """Shared I/D L1s + unified L2 + TLBs, returning access latencies.

    One instance per simulated processor; pipelines and threads all probe
    the same arrays, so inter-thread interference (the phenomenon hdSMT's
    mapping policy tries to manage) emerges naturally.
    """

    __slots__ = (
        "params",
        "l1i",
        "l1d",
        "l2",
        "itlb",
        "dtlb",
        "_l1_lat",
        "_l1_miss_pen",
        "_mem_lat",
        "_tlb_pen",
    )

    def __init__(self, params: MemoryParams | None = None, max_threads: int = 8) -> None:
        p = params or MemoryParams()
        self.params = p
        self._l1_lat = p.l1_latency
        self._l1_miss_pen = p.l1_miss_penalty
        self._mem_lat = p.memory_latency
        self._tlb_pen = p.tlb_miss_penalty
        self.l1i = SetAssociativeCache(
            p.l1i_size, p.l1i_ways, p.line_bytes, max_threads, "L1I"
        )
        self.l1d = SetAssociativeCache(
            p.l1d_size, p.l1d_ways, p.line_bytes, max_threads, "L1D"
        )
        self.l2 = SetAssociativeCache(
            p.l2_size, p.l2_ways, p.line_bytes, max_threads, "L2"
        )
        self.itlb = TranslationBuffer(p.itlb_entries, p.page_bytes, "ITLB")
        self.dtlb = TranslationBuffer(p.dtlb_entries, p.page_bytes, "DTLB")

    # -- probes ----------------------------------------------------------------
    #
    # Each probe walks TLB -> L1 -> (on an L1 miss) L2, updating every
    # structure it touches, and returns only what its caller consumes.
    # Hit/miss outcomes are read from the structures' counters.

    def load_latency(self, addr: int, thread: int) -> int:
        """Data load: DTLB + L1D + (on miss) L2. Returns total latency."""
        latency = (
            self._l1_lat
            if self.dtlb.access(addr, thread)
            else self._l1_lat + self._tlb_pen
        )
        if not self.l1d.access(addr, thread):
            latency += self._l1_miss_pen
            if not self.l2.access(addr, thread):
                latency += self._mem_lat
        return latency

    def fetch_latency(self, pc: int, thread: int) -> int:
        """Instruction fetch: ITLB + L1I + (on miss) L2.

        Returns the *stall* the fetch packet suffers: 0 extra cycles on an
        L1I hit (the pipeline depth already covers the 3-cycle hit), the
        miss penalties otherwise.
        """
        latency = 0 if self.itlb.access(pc, thread) else self._tlb_pen
        if not self.l1i.access(pc, thread):
            latency += self._l1_miss_pen
            if not self.l2.access(pc, thread):
                latency += self._mem_lat
        return latency

    def retire_store(self, addr: int, thread: int) -> None:
        """Data store at commit (the store-buffer drain): DTLB + L1D +
        (on miss) L2, write-allocating; no stall reaches the pipeline."""
        self.dtlb.access(addr, thread)
        if not self.l1d.access(addr, thread):
            self.l2.access(addr, thread)

    # -- maintenance -------------------------------------------------------------

    def reset(self) -> None:
        """Cold caches/TLBs (between independent simulations)."""
        self.l1i.invalidate_all()
        self.l1d.invalidate_all()
        self.l2.invalidate_all()
        self.itlb.invalidate_all()
        self.dtlb.invalidate_all()

    def reset_stats(self) -> None:
        """Zero every counter, keep contents warm (post-warm-up)."""
        self.l1i.reset_stats()
        self.l1d.reset_stats()
        self.l2.reset_stats()
        self.itlb.reset_stats()
        self.dtlb.reset_stats()

    def dcache_misses(self, thread: int) -> int:
        """Per-thread L1D miss count (the heuristic mapping's profile input)."""
        return self.l1d.stats.per_thread_misses[thread]
