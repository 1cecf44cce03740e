"""Run-time state shared by the engine's stages.

The constants (ROB slot states, per-slot flag bits, event kinds, fetch
policy fast-path kinds) and the :class:`Pipeline` record live here so the
stage modules can import them without touching the
:class:`~repro.core.engine.engine.Processor` shell — stages depend on
state, never the other way around.
"""

from __future__ import annotations

from collections import deque
from typing import List, Tuple

__all__ = [
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
    "Pipeline",
]

# ROB slot states.
S_FREE = 0
S_WAITING = 1
S_READY = 2
S_ISSUED = 3
S_DONE = 4

# Per-slot flag bits.
FL_WRONGPATH = 1  #: fetched down a wrong path (never commits)
FL_MISPRED = 2  #: mispredicted control instr: squash + redirect on resolve
FL_LOADCTR = 4  #: counted in the thread's in-flight-load counter

# Event kinds.
EV_COMPLETE = 0
EV_FLUSHCHK = 1

# Fetch-policy fast paths recognized by the fetch stage (fall back to
# the policy object's sort_key).
_PK_GENERIC = 0
_PK_ICOUNT = 1  # icount / flush: key (icount[t], t)
_PK_L1M = 2  # l1mcount: key (inflight[t], -width, icount[t], t)


class Pipeline:
    """Run-time state of one pipeline (cluster)."""

    __slots__ = (
        "index",
        "model",
        "width",
        "tpc",
        "buffer",
        "buffer_cap",
        "iq_used",
        "iq_cap",
        "fu_count",
        "fu_avail",
        "ready",
        "ready_counts",
        "threads",
        "issued_total",
        "blocked_epoch",
    )

    def __init__(self, index: int, model) -> None:
        self.index = index
        self.model = model
        self.width = model.width
        self.tpc = model.threads_per_cycle
        #: decoupling buffer entries: (thread, entry, trace_idx, flags)
        self.buffer: deque = deque()
        self.buffer_cap = model.fetch_buffer
        self.iq_used = [0, 0, 0]  # FU_INT, FU_FP, FU_LDST
        self.iq_cap = (model.iq_entries, model.fq_entries, model.lq_entries)
        self.fu_count = (model.int_units, model.fp_units, model.ldst_units)
        #: per-cycle FU availability, reset in place by the issue stage
        #: (persistent — no per-call ``list(fu_count)`` allocation)
        self.fu_avail: List[int] = [0, 0, 0]
        #: merged age-ordered ready heap of (seq, fu_class, thread, slot)
        self.ready: List[Tuple[int, int, int, int]] = []
        #: live READY entries in the heap per FU class (stale entries are
        #: excluded — squash decrements at squash time). The issue stage
        #: stops scanning the moment no class has both a free unit and a
        #: live entry, restoring the 3-heap stage's O(1) early-out when
        #: one saturated class backs up behind the others.
        self.ready_counts: List[int] = [0, 0, 0]
        self.threads: List[int] = []
        self.issued_total = 0
        #: value of the core's resource-free epoch when this pipeline's
        #: rename stage last head-blocked; while the epoch is unchanged no
        #: blocking resource has been released, so re-running rename is a
        #: provable no-op and the core skips the call.
        self.blocked_epoch = -1
