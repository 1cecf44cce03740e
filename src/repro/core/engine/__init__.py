"""The multipipeline SMT processor — cycle-level, trace-driven.

Models the machine of Fig. 1: a shared fetch engine feeding per-pipeline
decoupling buffers; each pipeline privately decodes, renames, queues,
issues and commits; all pipelines share the physical register file, the
branch predictor and the memory hierarchy. Entire threads are bound to
pipelines by the mapping.

Modeled behaviours (all load-bearing for the paper's results):

* per-thread 256-entry ROBs, a shared 256-entry rename-register pool;
* IQ/FQ/LQ occupancy per pipeline, per-class FU contention, age-ordered
  issue within a pipeline;
* perceptron/BTB/RAS front end with *wrong-path execution*: mispredicted
  threads fetch junk instructions (from the basic-block-dictionary
  equivalent) that consume fetch bandwidth, buffers, rename registers,
  queue slots and functional units until the branch resolves;
* I-cache/I-TLB fetch stalls; D-cache/D-TLB load latencies resolved at
  issue; stores retire through the cache at commit;
* the FLUSH mechanism (baseline policy): loads outstanding past the L2
  threshold squash the thread's younger instructions and gate its fetch;
* the hdSMT register-file tax (``reg_latency = 2``): the shared
  multipipeline register file takes an extra cycle per access, modeled as
  +1 cycle of result visibility per dependency edge (bypass networks
  still forward within the execution core) and +2 cycles of front-end
  refill after a branch mispredict (two extra pipeline stages).

Implementation style: per the HPC-guide discipline the per-cycle work is
O(machine width), not O(window). Completions are events in a *ring-buffer
timing wheel* sized to the worst-case latency (one list index to pop a
cycle's events, no dict hashing); wakeups walk dependent lists; ready
instructions sit in one *merged* age-ordered heap per pipeline of
``(seq, fu_class, thread, slot)`` entries, inserted at wakeup/rename and
consumed oldest-first at issue (entries whose FU class has no free unit
this cycle are parked and reinserted — the selection is provably the
age-ordered pick across per-class queues, without the per-instruction
three-heap scan); per-cycle FU availability lives in a persistent
per-pipeline counter vector reset in place (no per-call allocation).
Hot per-slot ROB state
lives in flat preallocated parallel arrays indexed ``thread * rob_entries
+ slot`` (one indexing level instead of two), bound to locals inside the
stage loops; no per-instruction objects are allocated during simulation.
``run()`` additionally *skips idle cycles*: when no instruction can
commit, issue, rename or fetch this cycle, the clock jumps directly to
the next scheduled event or fetch-stall expiry instead of spinning
``step()`` — bit-identical to stepping (the skipped cycles are provably
no-ops), but long memory stalls cost O(1) instead of O(latency).

Package layout (one module per concern):

* :mod:`~repro.core.engine.state` — ROB/flag/event constants and the
  per-pipeline :class:`~repro.core.engine.state.Pipeline` record;
* :mod:`~repro.core.engine.warm` — the vectorized warm pass, the
  process-wide memo and the on-disk snapshot store;
* :mod:`~repro.core.engine.stages` — the fetch/rename/issue/writeback/
  commit stages, one implementation each, and the
  :class:`~repro.core.engine.stages.StageSet` a processor runs;
* :mod:`~repro.core.engine.engine` — the
  :class:`~repro.core.engine.engine.Processor` shell that keeps the
  stage set and owns the ``run()``/``step()`` scheduling loop.
"""

from repro.core.engine.engine import Processor
from repro.core.engine.stages import StageSet, stage_set_for
from repro.core.engine.state import (
    EV_COMPLETE,
    EV_FLUSHCHK,
    FL_LOADCTR,
    FL_MISPRED,
    FL_WRONGPATH,
    Pipeline,
    S_DONE,
    S_FREE,
    S_ISSUED,
    S_READY,
    S_WAITING,
)
from repro.core.engine.warm import (
    clear_warm_cache,
    ensure_warm_snapshot,
    set_warm_store,
    warm_snapshot_path,
)

__all__ = [
    "Processor",
    "Pipeline",
    "clear_warm_cache",
    "set_warm_store",
    "ensure_warm_snapshot",
    "warm_snapshot_path",
    "StageSet",
    "stage_set_for",
    "S_FREE",
    "S_WAITING",
    "S_READY",
    "S_ISSUED",
    "S_DONE",
    "FL_WRONGPATH",
    "FL_MISPRED",
    "FL_LOADCTR",
    "EV_COMPLETE",
    "EV_FLUSHCHK",
]
