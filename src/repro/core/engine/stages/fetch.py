"""Fetch stage: policy-ordered packet fetch through the block tables.

Entries are read through per-trace block tables over the packed int64
columns (``index >> FETCH_SHIFT`` selects a block, decoded from the
column slices on first touch) — the tuple lists the seed fetch loop
indexed never materialize.

The stage walks the threads in policy order (ICOUNT, L1MCOUNT or a
policy's own sort key), skipping threads gated by a flush wait, a fetch
stall or a full decoupling buffer, and spends the fetch width across up
to ``fetch_threads`` of them; :func:`fetch_thread` fetches one packet
for one thread.
"""

from __future__ import annotations

from repro.core.engine.state import _PK_ICOUNT, _PK_L1M, FL_MISPRED, FL_WRONGPATH
from repro.isa.opcodes import OP_BRANCH, OP_CALL, OP_RETURN
from repro.trace.stream import FETCH_MASK, FETCH_SHIFT

__all__ = ["fetch", "fetch_thread"]


def fetch(self) -> None:
    cyc = self.cycle
    flush_wait = self.flush_wait
    stall = self.fetch_stall_until
    pipes = self._pipe_by_thread
    candidates = []
    for t in range(self.num_threads):
        if flush_wait[t] or cyc < stall[t]:
            continue
        pl = pipes[t]
        if len(pl.buffer) >= pl.buffer_cap:
            continue
        candidates.append(t)
    if not candidates:
        return
    if len(candidates) > 1:
        # Candidates ascend in thread id, and list.sort is stable, so
        # sorting on the policy key minus its trailing thread-id
        # tiebreak reproduces the seed ordering exactly.
        kind = self._policy_kind
        if kind == _PK_ICOUNT:
            candidates.sort(key=self.icount.__getitem__)
        elif kind == _PK_L1M:
            infl = self.inflight_loads
            ic = self.icount
            candidates.sort(key=lambda t: (infl[t], -pipes[t].width, ic[t]))
        else:
            policy = self.policy
            candidates.sort(key=lambda t: policy.sort_key(self, t))
    remaining = self._fetch_width
    threads_used = 0
    max_threads = self._fetch_threads
    fetch_one = self._fetch_thread
    for t in candidates:
        if remaining <= 0 or threads_used >= max_threads:
            break
        threads_used += 1
        remaining -= fetch_one(t, remaining)


def fetch_thread(self, t: int, budget: int) -> int:
    """Fetch one packet for thread ``t``; returns instructions taken.

    Entries are read through the per-trace block tables over the
    packed int64 columns (``index >> FETCH_SHIFT`` selects a block,
    decoded from the column slices on first touch) — the tuple lists
    the seed fetch loop indexed never materialize.
    """
    pl = self._pipe_by_thread[t]
    buf = pl.buffer
    space = pl.buffer_cap - len(buf)
    limit = budget if budget < space else space
    if limit <= 0:
        return 0
    trace = self.traces[t]
    length = trace.length
    junk_len = trace.junk_length
    eblocks = self._fetch_eblocks[t]
    jblocks = self._fetch_jblocks[t]
    entry_block = trace.entry_block
    junk_block = trace.junk_block
    bshift = FETCH_SHIFT  # locals: the loop reads them per entry
    bmask = FETCH_MASK
    cyc = self.cycle
    junk_idx = self.junk_idx
    fetch_idx = self.fetch_idx
    wp = self.wrong_path[t]
    # One I-cache/I-TLB probe per packet (head PC).
    if wp:
        j = junk_idx[t] % junk_len
        blk = jblocks[j >> bshift]
        if blk is None:
            blk = junk_block(j >> bshift)
        head_pc = blk[j & bmask][6]
    else:
        j = fetch_idx[t] % length
        blk = eblocks[j >> bshift]
        if blk is None:
            blk = entry_block(j >> bshift)
        head_pc = blk[j & bmask][6]
    fetch_lat = self.mem.fetch_latency(head_pc, t)
    if fetch_lat > 0:
        self.fetch_stall_until[t] = cyc + fetch_lat
        self.stat_icache_stalls += 1
        return 0
    taken_count = 0
    wrongpath_count = 0
    append = buf.append
    unit = self.branch_unit
    predict = unit.predict
    while taken_count < limit:
        if wp:
            j = junk_idx[t] % junk_len
            blk = jblocks[j >> bshift]
            if blk is None:
                blk = junk_block(j >> bshift)
            e = blk[j & bmask]
            junk_idx[t] += 1
            tidx = -1
            flags = FL_WRONGPATH
            wrongpath_count += 1
        else:
            tidx = fetch_idx[t]
            j = tidx % length
            blk = eblocks[j >> bshift]
            if blk is None:
                blk = entry_block(j >> bshift)
            e = blk[j & bmask]
            fetch_idx[t] = tidx + 1
            flags = 0
        op = e[0]
        if op == OP_BRANCH or op == OP_CALL or op == OP_RETURN:
            actual_taken = bool(e[5])
            if tidx >= 0:
                j = (tidx + 1) % length
                blk = eblocks[j >> bshift]
                if blk is None:
                    blk = entry_block(j >> bshift)
                actual_target = blk[j & bmask][6]
            else:
                actual_target = e[6] + 4
            pred = predict(t, e[6], op, actual_taken, actual_target)
            if pred.direction_mispredict or (
                op == OP_RETURN and pred.target_mispredict
            ):
                # Full mispredict: fetch goes down the wrong path until
                # this branch resolves in the execute stage.
                flags |= FL_MISPRED
                unit.note_direction_mispredict()
                self.wrong_path[t] = True
                wp = True
                append((t, e, tidx, flags))
                taken_count += 1
                if pred.taken:
                    break  # fetch redirects (to the wrong target)
                continue  # wrong path continues sequentially (junk)
            append((t, e, tidx, flags))
            taken_count += 1
            if pred.taken:
                if not pred.target_known:
                    # Direction right but no target from BTB: short
                    # front-end bubble while decode computes it.
                    self.fetch_stall_until[t] = cyc + self.params.btb_miss_penalty
                    self.stat_btb_bubbles += 1
                break  # taken prediction ends the packet
        else:
            append((t, e, tidx, flags))
            taken_count += 1
    self.icount[t] += taken_count
    self.stat_fetched[t] += taken_count
    if wrongpath_count:
        self.stat_wrongpath_fetched[t] += wrongpath_count
    return taken_count
