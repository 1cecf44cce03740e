"""Commit stage: retire DONE instructions from each ROB head, in-order.

Each pipeline retires up to its width per cycle. A fairness rotor picks
which of the pipeline's threads commits first, and a thread keeps
committing until its head is not DONE or the budget runs out. Stores
retire through the cache here, and each committed destination returns
its rename register to the shared pool.
"""

from __future__ import annotations

from repro.core.engine.state import S_DONE, S_FREE
from repro.isa.opcodes import OP_STORE

__all__ = ["commit"]


def commit(self) -> None:
    entries, states, _, deps, _, _, _, _, _, _ = self._rob_arrays
    heads = self.rob_head
    counts = self.rob_count
    committed = self.committed
    reg_maps = self.reg_map
    mem_store = self.mem.retire_store
    r = self.rob_entries
    target = self.commit_target
    phys_free = self.phys_free
    rotor = self._commit_rotor
    self._commit_rotor = rotor + 1
    head_done = self._head_done
    for pl in self.active_pipes:
        budget = pl.width
        threads = pl.threads
        nt = len(threads)
        for k in range(nt):
            if budget <= 0:
                break
            t = threads[(rotor + k) % nt]
            head = heads[t]
            count = counts[t]
            base = t * r
            if not count or states[base + head] != S_DONE:
                continue
            rmap = reg_maps[t]
            c = committed[t]
            while budget > 0 and count > 0 and states[base + head] == S_DONE:
                i = base + head
                e = entries[i]
                if e[0] == OP_STORE:
                    mem_store(e[4], t)
                dest = e[1]
                if dest >= 0:
                    phys_free += 1
                    if rmap[dest] == head:
                        rmap[dest] = -1
                states[i] = S_FREE
                d = deps[i]
                if d:
                    d.clear()
                head += 1
                if head == r:
                    head = 0
                count -= 1
                budget -= 1
                c += 1
                if c >= target:
                    self.finished = True
            committed[t] = c
            heads[t] = head
            counts[t] = count
            # Keep the commit gate exact: the head either still holds
            # a DONE instruction (budget ran out mid-stream) or the
            # thread leaves the commitable set.
            if not (count and states[base + head] == S_DONE):
                head_done[t] = False
                self._commitable -= 1
    self.phys_free = phys_free
    # ROB slots / rename registers were released (the gate guarantees
    # at least one pop happened): blocked rename stages may proceed.
    self._free_epoch += 1
