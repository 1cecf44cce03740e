"""Issue stage: consume the merged age-ordered ready heap, oldest first.

Each pipeline keeps one heap of ``(seq, fu_class, thread, slot)``
entries fed at rename/wakeup; each pick takes the heap head unless its
FU class has no free unit this cycle, in which case the entry is
*parked* and the scan continues with the next-oldest — exactly the
age-ordered pick across per-class queues the pre-merge three-heap stage
computed (that stage survives verbatim as the reference machine of
``tests/properties/test_issue_merged_ready.py``).

:func:`issue_all` is the stage the processor calls each cycle with a
ready instruction anywhere: it runs :func:`issue_pipeline` on every
pipeline whose heap is non-empty.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import List

from repro.core.engine.state import EV_COMPLETE, EV_FLUSHCHK, FL_LOADCTR, S_ISSUED, S_READY
from repro.isa.opcodes import EXEC_LATENCY, OP_LOAD

__all__ = ["issue_all", "issue_pipeline"]


def issue_all(self) -> None:
    """Issue stage: every pipeline with ready entries."""
    issue = self._issue
    for pl in self.active_pipes:
        if pl.ready:
            issue(pl)


def issue_pipeline(self, pl) -> None:
    """Issue up to ``width`` ready instructions of one pipeline, oldest
    first.

    The merged ready heap orders every ready instruction of the
    pipeline by global age (``seq``); each pick takes the heap head
    unless its FU class has no free unit this cycle, in which case
    the entry is *parked* and the scan continues with the next-oldest
    — exactly the age-ordered pick across per-class queues the
    three-heap stage computed, without the per-instruction scan over
    all three heads. Parked entries are pushed back after the loop
    (they stay READY; only this cycle's units were taken). Stale
    heads (squashed or recycled slots) are dropped lazily, as before.
    """
    budget = pl.width
    heap = pl.ready
    fu_avail = pl.fu_avail
    ready_counts = pl.ready_counts
    c0, c1, c2 = pl.fu_count
    fu_avail[0] = c0
    fu_avail[1] = c1
    fu_avail[2] = c2
    entries, states, _, _, tidx_arr, _, _, seqs, epochs, flags_arr = (
        self._rob_arrays
    )
    iq_used = pl.iq_used
    icount = self.icount
    mem_load = self.mem.load_latency
    r = self.rob_entries
    extra = self._extra_reg
    l1_lat = self._l1_lat
    flush_thr = self._flush_thr
    cyc = self.cycle
    wheel = self._wheel
    mask = self._wheel_mask
    size = mask + 1
    flushing = self.policy.flushing
    issued = 0
    deferred: List[tuple] = []
    while budget > 0 and heap:
        head = heap[0]
        s, fu, t, slot = head
        i = t * r + slot
        if states[i] != S_READY or seqs[i] != s:
            heappop(heap)  # stale (squashed or recycled slot)
            continue
        if fu_avail[fu] <= 0:
            # This class's units are taken: park the entry, keep
            # scanning younger instructions of the other classes —
            # but only while some class still has both a free unit
            # and a live entry left in the heap (the 3-heap stage's
            # O(1) early-out, kept exact by the live counts).
            heappop(heap)
            deferred.append(head)
            ready_counts[fu] -= 1
            if not (
                (fu_avail[0] > 0 and ready_counts[0] > 0)
                or (fu_avail[1] > 0 and ready_counts[1] > 0)
                or (fu_avail[2] > 0 and ready_counts[2] > 0)
            ):
                break  # nothing issuable remains this cycle
            continue
        heappop(heap)
        fu_avail[fu] -= 1
        ready_counts[fu] -= 1
        budget -= 1
        states[i] = S_ISSUED
        issued += 1
        iq_used[fu] -= 1
        icount[t] -= 1
        e = entries[i]
        op = e[0]
        if op == OP_LOAD:
            rlat = mem_load(e[4], t)
            lat = rlat + extra
            # The L1MCOUNT policy (a DCache-Warn variant) gates fetch
            # on loads *likely to miss*: only loads that outlive an L1
            # hit count toward the thread's in-flight-load priority.
            if rlat > l1_lat:
                self.inflight_loads[t] += 1
                flags_arr[i] |= FL_LOADCTR
            if (
                flushing
                and rlat > flush_thr
                and tidx_arr[i] >= 0
                and not self.flush_wait[t]
            ):
                when = cyc + flush_thr
                item = (EV_FLUSHCHK, t, slot, epochs[i])
                wi = when & mask
                lst = wheel[wi]
                if lst is None:
                    wheel[wi] = [item]
                else:
                    lst.append(item)
        else:
            lat = EXEC_LATENCY[op] + extra
        if lat <= 0:
            lat = 1
        item = (EV_COMPLETE, t, slot, epochs[i])
        if lat < size:
            wi = (cyc + lat) & mask
            lst = wheel[wi]
            if lst is None:
                wheel[wi] = [item]
            else:
                lst.append(item)
        else:  # pragma: no cover - out-of-horizon (custom params) safety
            self._far_events.setdefault(cyc + lat, []).append(item)
    for item in deferred:
        heappush(heap, item)
        ready_counts[item[1]] += 1
    if issued:
        pl.issued_total += issued
        self._ready_count -= issued
        self._free_epoch += 1  # queue slots freed: unblock rename
