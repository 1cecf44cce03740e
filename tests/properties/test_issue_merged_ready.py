"""Differential property suite: merged ready heap ≡ the 3-heap stage.

The issue stage now keeps one merged age-ordered ready heap per pipeline
(``(seq, fu, thread, slot)``) where it used to keep three per-FU-class
heaps and rediscover the oldest issuable instruction with a three-head
scan per pick. Its license is exactness: the selection — the age-ordered
pick across FU classes with free units — must be *identical*, cycle for
cycle.

The reference implementation below is the pre-merge three-heap stage,
copied verbatim (``_issue`` / ``_complete`` / ``_rename`` as of PR 3)
and bound onto a live :class:`~repro.core.engine.Processor` whose
per-pipeline ``ready`` structures are swapped back to heap triples.
Hypothesis drives both machines over randomized workloads, mappings and
commit targets; they are stepped in lockstep and must agree on the
complete ROB state, the pending-event schedule (content *and* order —
events are appended in issue order, so equal event lists pin the
within-cycle issue order) and every end-of-run statistic.
"""

from heapq import heappush, heappop
from types import MethodType

from hypothesis import given, settings, strategies as st

from repro.core.config import STANDARD_CONFIG_NAMES, get_config
from repro.core.mapping import enumerate_mappings
from repro.core.engine import (
    EV_COMPLETE,
    EV_FLUSHCHK,
    FL_LOADCTR,
    FL_MISPRED,
    Processor,
    S_DONE,
    S_ISSUED,
    S_READY,
    S_WAITING,
)
from repro.isa.opcodes import (
    EXEC_LATENCY,
    OP_BRANCH,
    OP_CALL,
    OP_LOAD,
    OP_RETURN,
    _FU_OF_OP,
)
from repro.trace.benchmarks import BENCHMARK_NAMES
from repro.trace.stream import trace_for


# --------------------------------------------------------------------------
# The pre-merge reference stage, verbatim. Three per-FU-class heaps of
# (seq, thread, slot); per-call ``list(pl.fu_count)``; three-head scan.
# --------------------------------------------------------------------------


def _legacy_issue(self, pl):
    budget = pl.width
    fu_avail = list(pl.fu_count)
    ready = pl.ready
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
    while budget > 0:
        best_fu = -1
        best_seq = None
        for fu in (0, 1, 2):
            if fu_avail[fu] <= 0:
                continue
            heap = ready[fu]
            while heap:
                s, t, slot = heap[0]
                i = t * r + slot
                if states[i] == S_READY and seqs[i] == s:
                    break
                heappop(heap)
            if heap and (best_seq is None or heap[0][0] < best_seq):
                best_seq = heap[0][0]
                best_fu = fu
        if best_fu < 0:
            break
        s, t, slot = heappop(ready[best_fu])
        i = t * r + slot
        fu_avail[best_fu] -= 1
        budget -= 1
        states[i] = S_ISSUED
        issued += 1
        iq_used[best_fu] -= 1
        icount[t] -= 1
        e = entries[i]
        op = e[0]
        if op == OP_LOAD:
            rlat = mem_load(e[4], t)
            lat = rlat + extra
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
        else:  # pragma: no cover - out-of-horizon safety
            self._far_events.setdefault(cyc + lat, []).append(item)
    if issued:
        pl.issued_total += issued
        self._ready_count -= issued
        self._free_epoch += 1


def _legacy_issue_stage(self):
    for pl in self.active_pipes:
        ready = pl.ready
        if ready[0] or ready[1] or ready[2]:
            _legacy_issue(self, pl)


def _legacy_complete(self, t, slot):
    r = self.rob_entries
    base = t * r
    i = base + slot
    entries, states, pend, deps_arr, tidx_arr, _, _, seqs, epochs, flags_arr = (
        self._rob_arrays
    )
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
    deps = deps_arr[i]
    if deps:
        fu_of = _FU_OF_OP
        ready = self._pipe_by_thread[t].ready
        woken = 0
        for d, dep_ep in deps:
            j = base + d
            if epochs[j] != dep_ep:
                continue
            p = pend[j] - 1
            pend[j] = p
            if p == 0 and states[j] == S_WAITING:
                states[j] = S_READY
                heappush(ready[fu_of[entries[j][0]]], (seqs[j], t, d))
                woken += 1
        if woken:
            self._ready_count += woken
        deps.clear()
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
            self.fetch_stall_until[t] = self.cycle + self._redirect_stall


def _legacy_rename(self, pl):
    buf = pl.buffer
    if not buf:
        return
    t0, e0, _, _ = buf[0]
    fu0 = _FU_OF_OP[e0[0]]
    if (
        pl.iq_used[fu0] >= pl.iq_cap[fu0]
        or self.rob_count[t0] >= self.rob_entries
        or (e0[1] >= 0 and self.phys_free <= 0)
    ):
        pl.blocked_epoch = self._free_epoch
        return
    budget = pl.width
    tpc = pl.tpc
    track_tpc = len(pl.threads) > tpc
    new_thread = False
    seen_mask = 0
    nseen = 0
    iq_used = pl.iq_used
    iq_cap = pl.iq_cap
    ready = pl.ready
    r = self.rob_entries
    (entries, states, pend_arr, deps, tidx_arr, prevprods, prevseqs,
     seqs, epoch_arr, flags_arr) = self._rob_arrays
    rob_tail = self.rob_tail
    rob_count = self.rob_count
    reg_maps = self.reg_map
    epochs_t = self.epoch
    fu_of = _FU_OF_OP
    phys_free = self.phys_free
    seq = self.seq
    woken = 0
    while budget > 0 and buf:
        t, e, tidx, flags = buf[0]
        if track_tpc:
            new_thread = not ((seen_mask >> t) & 1)
            if new_thread and nseen >= tpc:
                break
        op = e[0]
        fu = fu_of[op]
        if iq_used[fu] >= iq_cap[fu]:
            break
        if rob_count[t] >= r:
            break
        dest = e[1]
        if dest >= 0 and phys_free <= 0:
            break
        buf.popleft()
        if new_thread:
            seen_mask |= 1 << t
            nseen += 1
        budget -= 1
        slot = rob_tail[t]
        rob_tail[t] = slot + 1 if slot + 1 < r else 0
        rob_count[t] += 1
        base = t * r
        i = base + slot
        entries[i] = e
        tidx_arr[i] = tidx
        ep = epochs_t[t]
        epoch_arr[i] = ep
        flags_arr[i] = flags
        seqs[i] = seq
        myseq = seq
        seq += 1
        pending = 0
        reg_map = reg_maps[t]
        src = e[2]
        if src >= 0:
            prod = reg_map[src]
            if prod >= 0 and states[base + prod] < S_DONE:
                pending += 1
                dl = deps[base + prod]
                if dl is None:
                    deps[base + prod] = [(slot, ep)]
                else:
                    dl.append((slot, ep))
        src = e[3]
        if src >= 0:
            prod = reg_map[src]
            if prod >= 0 and states[base + prod] < S_DONE:
                pending += 1
                dl = deps[base + prod]
                if dl is None:
                    deps[base + prod] = [(slot, ep)]
                else:
                    dl.append((slot, ep))
        if dest >= 0:
            prev = reg_map[dest]
            prevprods[i] = prev
            prevseqs[i] = seqs[base + prev] if prev >= 0 else -1
            reg_map[dest] = slot
            phys_free -= 1
        else:
            prevprods[i] = -1
            prevseqs[i] = -1
        pend_arr[i] = pending
        iq_used[fu] += 1
        if pending == 0:
            states[i] = S_READY
            heappush(ready[fu], (myseq, t, slot))
            woken += 1
        else:
            states[i] = S_WAITING
    self.phys_free = phys_free
    self.seq = seq
    if woken:
        self._ready_count += woken


def make_legacy(config, traces, mapping, target) -> Processor:
    """A processor whose issue machinery is the pre-merge 3-heap stage."""
    proc = Processor(config, traces, mapping, target)
    for pl in proc.pipelines:
        pl.ready = ([], [], [])
    proc._issue_impl = MethodType(_legacy_issue_stage, proc)
    proc._complete = MethodType(_legacy_complete, proc)
    proc._rename = MethodType(_legacy_rename, proc)
    return proc


# ------------------------------------------------------------- comparison


def _machine_state(proc: Processor) -> tuple:
    """Everything the issue stage can influence, cycle-granular."""
    return (
        proc.cycle,
        proc.seq,
        proc.phys_free,
        proc._ready_count,
        proc._commitable,
        tuple(proc.committed),
        tuple(proc.icount),
        tuple(proc.inflight_loads),
        tuple(proc._rob_state),
        tuple(proc._rob_seq),
        tuple(pl.issued_total for pl in proc.pipelines),
        tuple(tuple(pl.iq_used) for pl in proc.pipelines),
        # Event schedule: content and order (events append in issue
        # order, so equality pins the within-cycle pick order too).
        tuple(sorted(
            (when, tuple(evs)) for when, evs in proc.events.items()
        )),
    )


def _final_state(proc: Processor) -> tuple:
    return (
        proc.cycle,
        proc.finished,
        tuple(proc.committed),
        tuple(pl.issued_total for pl in proc.pipelines),
        tuple(proc.stat_mispredicts),
        tuple(proc.stat_flushes),
        tuple(proc.stat_squashed),
        tuple(proc.stat_fetched),
        tuple(proc.stat_wrongpath_fetched),
        proc.stat_icache_stalls,
        proc.stat_btb_bubbles,
        proc.aggregate_ipc(),
    )


@st.composite
def scenario(draw):
    cfg_name = draw(st.sampled_from(STANDARD_CONFIG_NAMES))
    cfg = get_config(cfg_name)
    n = draw(st.integers(min_value=1, max_value=min(4, cfg.total_contexts)))
    benches = tuple(draw(st.sampled_from(BENCHMARK_NAMES)) for _ in range(n))
    options = enumerate_mappings(cfg, n, max_mappings=6,
                                 seed=draw(st.integers(0, 3)))
    mapping = draw(st.sampled_from(options))
    return cfg, benches, mapping


def _traces_for(benches, length=1500):
    seen = {}
    traces = []
    for b in benches:
        inst = seen.get(b, 0)
        seen[b] = inst + 1
        traces.append(trace_for(b, length, instance=inst))
    return traces


@given(scenario())
@settings(max_examples=12, deadline=None)
def test_lockstep_equivalence_with_three_heap_stage(scn):
    """Step both machines cycle by cycle: the complete issue-visible
    state (ROB, events, counters) must match after every cycle."""
    cfg, benches, mapping = scn
    traces = _traces_for(benches)
    merged = Processor(cfg, traces, mapping, commit_target=10**9)
    merged.warm()
    legacy = make_legacy(cfg, traces, mapping, 10**9)
    legacy.warm()
    for cycle in range(400):
        merged.step()
        legacy.step()
        assert _machine_state(merged) == _machine_state(legacy), (
            f"divergence at cycle {cycle}"
        )


@given(scenario(), st.integers(min_value=150, max_value=600))
@settings(max_examples=12, deadline=None)
def test_full_run_equivalence_with_three_heap_stage(scn, target):
    """run() (idle-skipping fast path included) to the commit target:
    identical cycle counts, commits and statistics."""
    cfg, benches, mapping = scn
    traces = _traces_for(benches)
    merged = Processor(cfg, traces, mapping, commit_target=target)
    merged.warm()
    merged.run()
    legacy = make_legacy(cfg, traces, mapping, target)
    legacy.warm()
    legacy.run()
    assert _final_state(merged) == _final_state(legacy)


def test_fu_contention_parks_and_reinserts(hand_trace):
    """Saturate one FU class: the merged heap must park the blocked
    oldest entries, still issue younger instructions of other classes
    (exactly what the 3-heap scan did), and reinsert the parked entries
    so they issue on a later cycle."""
    from repro.isa.opcodes import OP_INT
    from repro.isa.registers import REG_NONE

    # A burst of independent INT ops (more than the INT units) followed
    # by independent loads: with every INT unit taken, loads must still
    # issue the same cycle.
    entries = []
    for i in range(16):
        entries.append((OP_INT, 1 + (i % 8), REG_NONE, REG_NONE, 0, 0,
                        0x40_0000 + 4 * i))
        entries.append((OP_LOAD, 9 + (i % 8), REG_NONE, REG_NONE,
                        0x10_0000 + 64 * i, 0, 0x40_0000 + 4 * (16 + i)))
    trace = hand_trace(entries)
    cfg = get_config("M8")
    merged = Processor(cfg, [trace], (0,), commit_target=len(entries))
    merged.run()
    legacy = make_legacy(cfg, [trace], (0,), len(entries))
    legacy.run()
    assert _final_state(merged) == _final_state(legacy)
    assert merged.finished
