"""Writeback stage: drain the timing wheel, complete, resolve, squash.

One cycle's completions pop from the ring-buffer wheel slot (plus the
out-of-horizon safety dict); each surviving event either completes its
instruction (:func:`complete` — wake dependents, resolve branches,
redirect on mispredicts) or fires a FLUSH check (:func:`do_flush` — the
baseline policy's long-latency-load squash). :func:`squash_after` is the
shared squash walker (mispredict recovery and FLUSH both use it).

The wheel and the ROB arrays are pipeline-agnostic, so the stage never
loops over pipelines.
"""

from __future__ import annotations

from heapq import heappush

from repro.core.engine.state import (
    EV_COMPLETE,
    FL_LOADCTR,
    FL_MISPRED,
    S_DONE,
    S_FREE,
    S_ISSUED,
    S_READY,
    S_WAITING,
)
from repro.isa.opcodes import OP_BRANCH, OP_CALL, OP_RETURN, _FU_OF_OP

__all__ = ["writeback", "complete", "do_flush", "squash_after"]


def writeback(self) -> None:
    cyc = self.cycle
    idx = cyc & self._wheel_mask
    evs = self._wheel[idx]
    if evs is not None:
        self._wheel[idx] = None
        if self._far_events:
            more = self._far_events.pop(cyc, None)
            if more:
                evs.extend(more)
    else:
        if not self._far_events:
            return
        evs = self._far_events.pop(cyc, None)
        if not evs:
            return
    epochs = self._rob_epoch
    states = self._rob_state
    r = self.rob_entries
    for kind, t, slot, ep in evs:
        i = t * r + slot
        if epochs[i] != ep:
            continue
        if kind == EV_COMPLETE:
            if states[i] != S_ISSUED:
                continue
            self._complete(t, slot)
        else:  # EV_FLUSHCHK: load still outstanding past the threshold?
            if states[i] == S_ISSUED:
                self._do_flush(t, slot)


def complete(self, t: int, slot: int) -> None:
    r = self.rob_entries
    base = t * r
    i = base + slot
    (
        entries,
        states,
        pend,
        deps_arr,
        tidx_arr,
        _,
        _,
        seqs,
        epochs,
        flags_arr,
    ) = self._rob_arrays
    states[i] = S_DONE
    if slot == self.rob_head[t] and not self._head_done[t]:
        self._head_done[t] = True
        self._commitable += 1
    flags = flags_arr[i]
    if flags & FL_LOADCTR:
        flags_arr[i] = flags & ~FL_LOADCTR
        self.inflight_loads[t] -= 1
        if self.flush_wait[t] and self.flush_load_slot[t] == slot:
            self.flush_wait[t] = False
            self.flush_load_slot[t] = -1
    # Wake dependents.
    deps = deps_arr[i]
    if deps:
        fu_of = _FU_OF_OP
        pl = self._pipe_by_thread[t]
        ready = pl.ready
        ready_counts = pl.ready_counts
        woken = 0
        for d, dep_ep in deps:
            j = base + d
            if epochs[j] != dep_ep:
                continue
            p = pend[j] - 1
            pend[j] = p
            if p == 0 and states[j] == S_WAITING:
                states[j] = S_READY
                fu = fu_of[entries[j][0]]
                heappush(ready, (seqs[j], fu, t, d))
                ready_counts[fu] += 1
                woken += 1
        if woken:
            self._ready_count += woken
        deps.clear()
    # Branch resolution.
    e = entries[i]
    op = e[0]
    if op == OP_BRANCH or op == OP_CALL or op == OP_RETURN:
        tidx = tidx_arr[i]
        taken = bool(e[5])
        if tidx >= 0:
            target = self.traces[t].next_pc(tidx) if taken else e[6] + 4
            self.branch_unit.resolve(t, e[6], op, taken, target)
        if flags_arr[i] & FL_MISPRED:
            flags_arr[i] &= ~FL_MISPRED
            self.stat_mispredicts[t] += 1
            self._squash_after(t, slot)
            self.wrong_path[t] = False
            if tidx >= 0:
                self.fetch_idx[t] = tidx + 1
            # The redirect overrides any stall the wrong path incurred
            # (e.g. a wrong-path I-cache miss): fetch restarts at the
            # correct target after the front-end refill bubble. The
            # 2-cycle hdSMT register file deepens the pipeline, so the
            # refill grows by one cycle per extra read/write stage.
            self.fetch_stall_until[t] = self.cycle + self._redirect_stall


def do_flush(self, t: int, load_slot: int) -> None:
    """FLUSH policy: squash everything younger than the L2-missing
    load and gate the thread's fetch until the load completes."""
    self.stat_flushes[t] += 1
    self._squash_after(t, load_slot)
    self.wrong_path[t] = False
    self.flush_wait[t] = True
    self.flush_load_slot[t] = load_slot
    self.fetch_idx[t] = self._rob_traceidx[t * self.rob_entries + load_slot] + 1
    # Any wrong-path fetch stall dies with the flush.
    self.fetch_stall_until[t] = self.cycle


def squash_after(self, t: int, bslot: int) -> None:
    """Squash every instruction of ``t`` younger than ``bslot``:
    roll the ROB tail back, release queue slots / rename registers /
    load counters, restore the rename map, purge the fetch buffer."""
    self.epoch[t] += 1
    self._free_epoch += 1  # buffer/queue/register release: unblock rename
    pl = self._pipe_by_thread[t]
    # Purge this thread's not-yet-renamed entries from the buffer
    # (they are all younger than anything in the ROB).
    buf = pl.buffer
    if buf:
        kept = [it for it in buf if it[0] != t]
        removed = len(buf) - len(kept)
        if removed:
            buf.clear()
            buf.extend(kept)
            self.icount[t] -= removed
            self.stat_squashed[t] += removed
    r = self.rob_entries
    base = t * r
    tail = self.rob_tail[t]
    # bslot is an occupied slot, so the strictly-younger range is
    # bslot+1 .. tail-1 in ring order.
    n_squash = (tail - bslot - 1) % r
    if not n_squash:
        self.rob_tail[t] = tail
        return
    states = self._rob_state
    entries = self._rob_entry
    flags_arr = self._rob_flags
    deps = self._rob_deps
    prevprods = self._rob_prevprod
    prevseqs = self._rob_prevseq
    seqs = self._rob_seq
    reg_map = self.reg_map[t]
    iq_used = pl.iq_used
    ready_counts = pl.ready_counts
    fu_of = _FU_OF_OP
    phys_free = self.phys_free
    icount_drop = 0
    ready_drop = 0
    for _ in range(n_squash):
        tail = tail - 1 if tail else r - 1
        i = base + tail
        st = states[i]
        e = entries[i]
        if st == S_WAITING or st == S_READY:
            fu = fu_of[e[0]]
            iq_used[fu] -= 1
            icount_drop += 1
            if st == S_READY:
                ready_drop += 1
                # The heap entry goes stale; only the live count says
                # so before the lazy pop reaches it.
                ready_counts[fu] -= 1
        elif st == S_ISSUED:
            if flags_arr[i] & FL_LOADCTR:
                self.inflight_loads[t] -= 1
        dest = e[1]
        if dest >= 0:
            phys_free += 1
            if reg_map[dest] == tail:
                prev = prevprods[i]
                if (
                    prev >= 0
                    and seqs[base + prev] == prevseqs[i]
                    and states[base + prev] != S_FREE
                ):
                    reg_map[dest] = prev
                else:
                    reg_map[dest] = -1
        states[i] = S_FREE
        flags_arr[i] = 0
        d = deps[i]
        if d:
            d.clear()
    self.phys_free = phys_free
    self.icount[t] -= icount_drop
    if ready_drop:
        self._ready_count -= ready_drop
    self.rob_count[t] -= n_squash
    self.stat_squashed[t] += n_squash
    self.rob_tail[t] = tail
