"""Memory hierarchy substrate (Table 1 of the paper).

* L1 I-cache: 64 KB, 2-way — 3-cycle hit;
* L1 D-cache: 64 KB, 2-way — 3-cycle hit, 22-cycle miss penalty
  (L2 hit service time);
* unified L2: 512 KB, 2-way — 12-cycle access, misses go to main
  memory at 250 cycles;
* I-TLB 48 entries / D-TLB 128 entries, 300-cycle miss penalty.

The paper's caches have 8 banks each; no bank conflict is modelled.

All threads of all pipelines share every level (the hdSMT design point:
caches and register file stay shared; only the pipelines are clustered).
"""

from repro.memory.cache import SetAssociativeCache, CacheStats
from repro.memory.tlb import TranslationBuffer
from repro.memory.hierarchy import MemoryHierarchy, MemoryParams

__all__ = [
    "SetAssociativeCache",
    "CacheStats",
    "TranslationBuffer",
    "MemoryHierarchy",
    "MemoryParams",
]
