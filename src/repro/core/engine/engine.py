"""The :class:`Processor` shell: construction, scheduling loop, views.

The cycle-level machine itself lives in the stage modules
(:mod:`repro.core.engine.stages`); this module owns the state the stages
operate on (flat ROB arrays, timing wheel, per-thread front-end state),
the ``run()``/``step()`` scheduling loop with its idle-cycle fast path,
and the ``events`` debugging view over the timing wheel.

The (fetch, issue, commit) stages come from
:func:`~repro.core.engine.stages.stage_set_for`; the processor keeps that
:class:`~repro.core.engine.stages.StageSet` of plain functions as
``_stages`` and passes itself to them: ``run()`` binds them as locals on
each call, ``step()`` calls them directly. No bound method lives on the
instance, so a processor is in no reference cycle and reference counting
frees it when its last reference goes, even in processes that run with
the cyclic GC off (the pool workers). Tests splice in reference machines
by replacing ``_stages`` (``dataclasses.replace``) or rebinding
``_complete``/``_rename`` on an instance.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.branch.unit import BranchUnit
from repro.core.config import MicroarchConfig
from repro.core.engine import warm as warm_module
from repro.core.engine.stages import (
    complete,
    do_flush,
    fetch_thread,
    issue_pipeline,
    rename,
    squash_after,
    stage_set_for,
    writeback,
)
from repro.core.engine.state import Pipeline, S_FREE, _PK_GENERIC, _PK_ICOUNT, _PK_L1M
from repro.core.fetch_policies import make_policy
from repro.isa.opcodes import EXEC_LATENCY
from repro.memory.hierarchy import MemoryHierarchy
from repro.trace.stream import Trace

__all__ = ["Processor"]


class Processor:
    """A configured hdSMT/SMT processor executing a set of thread traces.

    Parameters
    ----------
    config:
        The microarchitecture (pipelines + shared parameters).
    traces:
        One :class:`~repro.trace.stream.Trace` per thread.
    mapping:
        ``mapping[thread] = pipeline_index``; must respect contexts.
    commit_target:
        The simulation finishes as soon as any thread has committed this
        many correct-path instructions (the paper's stop rule).
    """

    # -- stage methods (module-level functions bound via the descriptor
    # protocol; fetch/issue/commit come from the per-instance _stages) ---
    _writeback = writeback
    _complete = complete
    _do_flush = do_flush
    _squash_after = squash_after
    _issue = issue_pipeline
    _rename = rename
    _fetch_thread = fetch_thread

    # -- warm machinery (see repro.core.engine.warm) ----------------------
    warm = warm_module.warm
    _load_warm_snapshot = warm_module._load_warm_snapshot
    _remember_warm = warm_module._remember_warm

    def __init__(
        self,
        config: MicroarchConfig,
        traces: Sequence[Trace],
        mapping: Sequence[int],
        commit_target: int,
    ) -> None:
        n = len(traces)
        if n == 0:
            raise ValueError("at least one thread required")
        if len(mapping) != n:
            raise ValueError("mapping length must equal thread count")
        loads = [0] * len(config.pipelines)
        for p in mapping:
            if not 0 <= p < len(config.pipelines):
                raise ValueError(
                    f"mapping names pipeline {p}, config has "
                    f"{len(config.pipelines)}"
                )
            loads[p] += 1
        if config.is_monolithic:
            if loads[0] > config.contexts_for(n):
                raise ValueError(f"{n} threads exceed contexts of {config.name}")
        else:
            for i, load in enumerate(loads):
                if load > config.pipelines[i].contexts:
                    raise ValueError(
                        f"pipeline {i} ({config.pipelines[i].name}) of {config.name} "
                        f"hosts {load} threads but has {config.pipelines[i].contexts} contexts"
                    )
        self.config = config
        self.params = config.params
        self.traces = list(traces)
        self.mapping = tuple(mapping)
        self.commit_target = commit_target
        self.num_threads = n

        self.pipelines = [Pipeline(i, m) for i, m in enumerate(config.pipelines)]
        self.pipe_of = list(self.mapping)
        for t, p in enumerate(self.pipe_of):
            self.pipelines[p].threads.append(t)
        #: pipelines with at least one thread (simulated; idle ones are off)
        self.active_pipes = [pl for pl in self.pipelines if pl.threads]
        #: thread -> its Pipeline object (kept in sync by dynamic remapping)
        self._pipe_by_thread = [self.pipelines[p] for p in self.pipe_of]

        #: per-thread block tables over the packed trace columns — the
        #: fetch engine indexes these instead of materialized tuple lists
        #: (blocks decode lazily on first touch; see Trace.fetch_view).
        self._fetch_eblocks: List[list] = []
        self._fetch_jblocks: List[list] = []
        for tr in self.traces:
            eb, jb = tr.fetch_view()
            self._fetch_eblocks.append(eb)
            self._fetch_jblocks.append(jb)

        self.mem = MemoryHierarchy(self.params.memory, max_threads=n)
        self.branch_unit = BranchUnit(max_threads=n)
        self.policy = make_policy(config.fetch_policy)
        pol = config.fetch_policy
        if pol in ("icount", "flush"):
            self._policy_kind = _PK_ICOUNT
        elif pol == "l1mcount":
            self._policy_kind = _PK_L1M
        else:
            self._policy_kind = _PK_GENERIC

        # --- shared resources -------------------------------------------
        self.phys_free = self.params.rename_registers
        self.cycle = 0
        self.seq = 0
        self.finished = False

        # --- timing wheel -------------------------------------------------
        # Sized to the worst-case event latency: a load that misses the
        # D-TLB, both cache levels, plus the register-file tax; any event
        # is scheduled strictly less than `size` cycles ahead, so slot
        # (cycle & mask) holds exactly cycle's events. `_far_events` is a
        # safety net for out-of-horizon schedules (custom parameter sets).
        m = self.params.memory
        horizon = (
            m.tlb_miss_penalty
            + m.l1_latency
            + m.l1_miss_penalty
            + m.memory_latency
            + max(EXEC_LATENCY)
            + self.params.extra_reg_cycles
            + m.flush_threshold
            + 8
        )
        size = 1 << horizon.bit_length()
        if size < 64:
            size = 64
        self._wheel: List[Optional[List[tuple]]] = [None] * size
        self._wheel_mask = size - 1
        self._far_events: Dict[int, List[tuple]] = {}
        #: count of instructions currently in state S_READY (for idle skip)
        self._ready_count = 0
        #: per-thread "ROB head is DONE" flags + their count: ~60% of
        #: cycles have nothing to commit, so the commit stage is gated on
        #: ``_commitable`` (a gated commit is provably a no-op: it would
        #: only advance the fairness rotor, which the gate does directly).
        self._head_done = [False] * n
        self._commitable = 0
        #: bumped whenever a rename-blocking resource frees (IQ/FQ/LQ slot,
        #: ROB slot, rename register, buffer purge); pipelines record it at
        #: head-block time so provably-still-blocked rename calls skip.
        self._free_epoch = 0

        # --- per-thread front-end state ----------------------------------
        self.fetch_idx = [0] * n
        self.wrong_path = [False] * n
        self.junk_idx = [0] * n
        self.fetch_stall_until = [0] * n
        self.flush_wait = [False] * n
        self.flush_load_slot = [-1] * n
        self.epoch = [0] * n
        self.icount = [0] * n
        self.inflight_loads = [0] * n
        self.committed = [0] * n

        # --- per-thread ROB: flat parallel arrays, slot = t * r + idx -----
        r = self.params.rob_entries
        self.rob_entries = r
        self.rob_head = [0] * n
        self.rob_tail = [0] * n
        self.rob_count = [0] * n
        nr = n * r
        self._rob_entry: List[Optional[tuple]] = [None] * nr
        self._rob_state = [S_FREE] * nr
        self._rob_pending = [0] * nr
        #: per-slot dependent lists, allocated lazily on the first edge
        #: (most slots in short screening runs never grow a dependent)
        self._rob_deps: List[Optional[List[Tuple[int, int]]]] = [None] * nr
        self._rob_traceidx = [-1] * nr
        self._rob_prevprod = [-1] * nr
        self._rob_prevseq = [-1] * nr
        self._rob_seq = [-1] * nr
        self._rob_epoch = [0] * nr
        self._rob_flags = [0] * nr
        #: one-lookup bundle for the stage prologues (unpacked into locals)
        self._rob_arrays = (
            self._rob_entry,
            self._rob_state,
            self._rob_pending,
            self._rob_deps,
            self._rob_traceidx,
            self._rob_prevprod,
            self._rob_prevseq,
            self._rob_seq,
            self._rob_epoch,
            self._rob_flags,
        )

        #: rename map: logical reg -> producing ROB slot (-1 = value ready)
        self.reg_map = [[-1] * 64 for _ in range(n)]

        # --- hoisted hot parameters --------------------------------------
        self._extra_reg = self.params.extra_reg_cycles
        self._l1_lat = m.l1_latency
        self._flush_thr = m.flush_threshold
        self._fetch_width = self.params.fetch_width
        self._fetch_threads = self.params.fetch_threads
        self._redirect_stall = (
            self.params.branch_redirect_penalty + 2 * self.params.extra_reg_cycles
        )

        # --- statistics ------------------------------------------------------
        self.stat_fetched = [0] * n
        self.stat_wrongpath_fetched = [0] * n
        self.stat_mispredicts = [0] * n
        self.stat_flushes = [0] * n
        self.stat_squashed = [0] * n
        self.stat_icache_stalls = 0
        self.stat_btb_bubbles = 0

        self._commit_rotor = 0
        self._warmed = False

        # --- stage composition -------------------------------------------
        self._stages = stage_set_for(config)

    # ------------------------------------------------------------- views

    @property
    def events(self) -> Dict[int, List[tuple]]:
        """Pending events as {absolute_cycle: [(kind, t, slot, epoch), ...]}.

        Reconstructed from the timing wheel (a compatibility/debugging
        view; the hot path never builds this dict).
        """
        out: Dict[int, List[tuple]] = {}
        cyc = self.cycle
        wheel = self._wheel
        mask = self._wheel_mask
        for d in range(len(wheel)):
            evs = wheel[(cyc + d) & mask]
            if evs:
                out[cyc + d] = list(evs)
        for when, evs in self._far_events.items():
            out.setdefault(when, []).extend(evs)
        return out

    # ------------------------------------------------------------------- run

    def run(self, max_cycles: Optional[int] = None) -> int:
        """Simulate until a thread reaches the commit target (or the cycle
        cap, a safety net). Returns the cycle count.

        Idle cycles — no event due, nothing ready to issue, nothing to
        commit, rename or fetch — are skipped in O(1): the clock jumps to
        the next scheduled event or fetch-stall expiry. The jump is
        clamped to ``max_cycles`` so skipping can never overshoot the
        safety cap.
        """
        if max_cycles is None:
            max_cycles = 400 * self.commit_target + 10_000
        wheel = self._wheel
        mask = self._wheel_mask
        size = mask + 1
        far = self._far_events
        flush_wait = self.flush_wait
        stall = self.fetch_stall_until
        active = self.active_pipes
        n = self.num_threads
        stages = self._stages
        commit_stage = stages.commit.__get__(self)
        writeback_stage = self._writeback
        issue_stage = stages.issue.__get__(self)
        rename_stage = self._rename
        fetch_stage = stages.fetch.__get__(self)
        while not self.finished:
            cyc = self.cycle
            if cyc >= max_cycles:
                break
            # --- idle-cycle fast path -----------------------------------
            # A cycle is provably a no-op when: no event fires now, no
            # instruction is READY, no ROB head is DONE, every decoupling
            # buffer is empty (nothing to rename) and every thread's fetch
            # is gated (flush-wait or stalled). Until the next event /
            # stall expiry the machine state cannot change, so the skipped
            # cycles are bit-identical to stepping through them.
            if (
                self._ready_count == 0
                and self._commitable == 0
                and not wheel[cyc & mask]
                and (not far or cyc not in far)
            ):
                idle = True
                for t in range(n):
                    if not flush_wait[t] and cyc >= stall[t]:
                        idle = False
                        break
                if idle:
                    for pl in active:
                        if pl.buffer:
                            idle = False
                            break
                if idle:
                    wake = max_cycles
                    for d in range(1, size):
                        if wheel[(cyc + d) & mask]:
                            if cyc + d < wake:
                                wake = cyc + d
                            break
                    if far:
                        nxt = min(far)
                        if nxt < wake:
                            wake = nxt
                    for t in range(n):
                        if not flush_wait[t]:
                            s = stall[t]
                            if cyc < s < wake:
                                wake = s
                    if wake <= cyc:  # pragma: no cover - defensive
                        wake = cyc + 1
                    # The commit rotor advances once per cycle (even idle
                    # ones) in step(); account for the skipped cycles.
                    self._commit_rotor += wake - cyc
                    self.cycle = wake
                    continue
            # --- one cycle (same stage order as step()) -----------------
            if self._commitable:
                commit_stage()
            else:
                # A commit with no DONE head only advances the fairness
                # rotor; do that directly.
                self._commit_rotor += 1
            if wheel[cyc & mask] or far:
                writeback_stage()
            if self._ready_count:
                issue_stage()
            free_epoch = self._free_epoch
            for pl in active:
                if pl.buffer and pl.blocked_epoch != free_epoch:
                    rename_stage(pl)
            fetch_stage()
            self.cycle = cyc + 1
        return self.cycle

    def step(self) -> None:
        """Advance one cycle: commit, writeback, issue, rename, fetch."""
        stages = self._stages
        if self._commitable:
            stages.commit(self)
        else:
            self._commit_rotor += 1
        if self._wheel[self.cycle & self._wheel_mask] or self._far_events:
            self._writeback()
        if self._ready_count:
            stages.issue(self)
        free_epoch = self._free_epoch
        for pl in self.active_pipes:
            if pl.buffer and pl.blocked_epoch != free_epoch:
                self._rename(pl)
        stages.fetch(self)
        self.cycle += 1

    # ------------------------------------------------------------- reporting

    def aggregate_ipc(self) -> float:
        """Committed correct-path instructions per cycle, all threads."""
        if self.cycle == 0:
            return 0.0
        return sum(self.committed) / self.cycle

    def thread_ipc(self, t: int) -> float:
        if self.cycle == 0:
            return 0.0
        return self.committed[t] / self.cycle
