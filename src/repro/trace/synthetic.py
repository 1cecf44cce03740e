"""Synthetic program and trace generation.

Two layers:

* :class:`StaticProgram` — a seeded synthetic control-flow graph for one
  benchmark: basic blocks laid out contiguously in a code segment, each
  ending in exactly one control instruction (conditional branch, call or
  return). Conditional branches are assigned one of three *behaviours*:

  - ``LOOP``   — taken ``trip-1`` times out of ``trip`` (back edge);
  - ``PATTERN``— outcome is a fixed signed-linear function of the branch's
    own outcome history: exactly the function class a perceptron predictor
    can learn, so these become predictable after warm-up;
  - ``BIASED`` — independent Bernoulli with a per-branch bias.

  The mixture fractions come from the benchmark profile and set the
  steady-state mispredict rate.

* :class:`TraceGenerator` — walks the CFG emitting packed
  :data:`~repro.isa.instruction.TraceEntry` tuples, as one list or in
  chunks of about :data:`SINK_CHUNK` handed to a sink: per-instruction
  register operands with a geometric dependency-distance distribution
  (the ILP knob), and a data-address stream mixing sequential streams, a
  hot reuse region and clustered cold-region accesses (the memory knob,
  including ``chain_frac`` pointer-chasing that serializes cache misses).

Everything is deterministic given ``(profile, seed)``.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional, Tuple

from repro.isa.instruction import TraceEntry
from repro.isa.opcodes import (
    OP_BRANCH,
    OP_CALL,
    OP_FP,
    OP_INT,
    OP_LOAD,
    OP_MUL,
    OP_RETURN,
    OP_STORE,
)
from repro.isa.registers import NUM_INT_REGS, REG_NONE, fp_reg
from repro.trace.benchmarks import BenchmarkProfile

__all__ = ["SINK_CHUNK", "StaticProgram", "TraceGenerator"]

# Terminator kinds.
TERM_BRANCH = 0
TERM_CALL = 1
TERM_RET = 2

# Conditional-branch behaviours.
KIND_LOOP = 0
KIND_PATTERN = 1
KIND_BIASED = 2

CODE_BASE = 0x0040_0000  #: code segment base address
DATA_BASE = 0x1000_0000  #: data segment base address
_MAX_CALL_DEPTH = 64
#: Entries a :meth:`TraceGenerator.generate` sink receives at a time (at
#: least; a chunk ends at a block boundary): the fetch view's block size.
SINK_CHUNK = 1024


class StaticProgram:
    """Seeded synthetic CFG for one benchmark profile."""

    __slots__ = (
        "profile",
        "seed",
        "num_blocks",
        "block_pc",
        "block_size",
        "block_term",
        "block_target",
        "branch_kind",
        "branch_param",
        "branch_taps",
        "func_entries",
        "code_bytes",
    )

    def __init__(self, profile: BenchmarkProfile, seed: int = 0) -> None:
        self.profile = profile
        self.seed = seed
        rng = random.Random(f"program:{profile.name}:{seed}")
        n = profile.num_blocks
        self.num_blocks = n

        mean_size = profile.mean_block_size
        lo = max(2, int(mean_size - 3))
        hi = int(mean_size + 3)
        sizes = [rng.randint(lo, hi) for _ in range(n)]

        # Contiguous layout: block b+1 starts right after block b, so a
        # not-taken branch (or a call's return) lands at pc_end + 4.
        pcs: List[int] = []
        pc = CODE_BASE
        for s in sizes:
            pcs.append(pc)
            pc += 4 * s
        self.block_pc = pcs
        self.block_size = sizes
        self.code_bytes = pc - CODE_BASE

        # Function entries: targets for calls. Kept few — real programs
        # call a small set of hot utility functions — so calls do not blow
        # up the instruction working set.
        num_funcs = max(3, n // 150)
        self.func_entries = sorted(rng.sample(range(1, n), num_funcs))

        call_p = profile.call_frac
        terms: List[int] = []
        targets: List[int] = []
        kinds: List[int] = []
        params: List[float] = []
        taps: List[Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]]] = []
        loop_p = profile.loop_branch_frac
        pattern_p = profile.pattern_branch_frac
        for b in range(n):
            r = rng.random()
            if r < call_p:
                terms.append(TERM_CALL)
                targets.append(rng.choice(self.func_entries))
                kinds.append(KIND_BIASED)
                params.append(1.0)
                taps.append(None)
                continue
            if r < 2 * call_p:
                terms.append(TERM_RET)
                targets.append(0)  # resolved by the walker's call stack
                kinds.append(KIND_BIASED)
                params.append(1.0)
                taps.append(None)
                continue
            terms.append(TERM_BRANCH)
            kr = rng.random()
            if kr < loop_p:
                kinds.append(KIND_LOOP)
                # Geometric-ish trip count around the profile mean, >= 2.
                trip = max(2, int(rng.expovariate(1.0 / profile.loop_trip_mean)) + 2)
                params.append(float(trip))
                target = max(self._region_start(b), b - rng.randint(0, 2))
                targets.append(target)  # back edge, within the region
                taps.append(None)
            elif kr < loop_p + pattern_p:
                kinds.append(KIND_PATTERN)
                params.append(0.0)
                targets.append(self._forward_target(rng, b, n))
                tap_pos = tuple(sorted(rng.sample(range(10), 6)))
                tap_sign = tuple(rng.choice((-1, 1)) for _ in tap_pos)
                taps.append((tap_pos, tap_sign))
            else:
                kinds.append(KIND_BIASED)
                bias = min(
                    0.98, max(0.02, rng.gauss(profile.random_branch_bias, 0.10))
                )
                params.append(bias)
                targets.append(self._forward_target(rng, b, n))
                taps.append(None)
        # The last block cannot fall through (there is no next block), so
        # its terminator is an always-taken branch back to the program
        # start: not-taken branches then always land at pc+4, the
        # invariant the front end's fall-through handling relies on.
        last = n - 1
        terms[last] = TERM_BRANCH
        kinds[last] = KIND_BIASED
        params[last] = 1.0
        targets[last] = 0
        taps[last] = None

        self.block_term = terms
        self.block_target = targets
        self.branch_kind = kinds
        self.branch_param = params
        self.branch_taps = taps

    #: Blocks per code region. Execution concentrates inside one region
    #: at a time (a program phase); only rare "bridge" jumps move to the
    #: next region. This gives the instruction stream the hot-loop
    #: locality of real programs — without it the walk streams through
    #: the whole code footprint and 6-thread workloads thrash the shared
    #: L1I into permanent fetch stalls.
    REGION_BLOCKS = 48
    #: Probability a forward target leaves the current region.
    REGION_BRIDGE_P = 0.03

    @classmethod
    def _region_start(cls, b: int) -> int:
        return (b // cls.REGION_BLOCKS) * cls.REGION_BLOCKS

    def _forward_target(self, rng: random.Random, b: int, n: int) -> int:
        """Region-local forward target with a rare phase-change bridge."""
        start = self._region_start(b)
        size = min(self.REGION_BLOCKS, n - start)
        if rng.random() < self.REGION_BRIDGE_P:
            return (start + self.REGION_BLOCKS) % n  # next region's head
        return start + (b - start + rng.randint(1, 20)) % size

    def static_branch_count(self) -> int:
        """Number of static conditional branches in the program."""
        return sum(1 for t in self.block_term if t == TERM_BRANCH)


class TraceGenerator:
    """Walks a :class:`StaticProgram`, emitting a dynamic instruction trace."""

    __slots__ = (
        "program",
        "profile",
        "rng",
        "_cur_block",
        "_call_stack",
        "_loop_count",
        "_branch_hist",
        "_recent_dests",
        "_last_load_dest",
        "_dest_cursor",
        "_stream_ptrs",
        "_stream_idx",
        "_cold_page",
        "_hot_base",
        "_cold_base",
        "_hot_pool",
        "_hot_pool_pos",
        "_mix_cum",
        "_dep_p",
        "_phase_budget",
        "_region_ptr",
    )

    #: Mean instructions per program phase; when a phase expires the next
    #: conditional branch jumps to the next code region. Guarantees the
    #: walk covers the whole code footprint over time (phase behaviour a
    #: la SimPoint) instead of trapping in one hot region forever. Each
    #: phase change costs a surprise mispredict, so phases are long.
    PHASE_INSTRS = 2500

    #: number of independent sequential access streams
    NUM_STREAMS = 4
    #: probability a cold access jumps to a fresh cold page (clustering)
    COLD_JUMP_P = 0.35
    #: probability a stream pointer advances after an access (an 8-byte
    #: stride advanced half the time = ~16 touches per 64-byte line, the
    #: spatial+temporal locality of a typical scan loop)
    STREAM_ADVANCE_P = 0.5
    #: hot-region temporal-reuse pool: recently-touched addresses that
    #: model stack/global locality (reuse distance far below L1 capacity)
    HOT_POOL_SIZE = 48
    HOT_POOL_REUSE_P = 0.90

    def __init__(self, program: StaticProgram, seed: int = 0) -> None:
        self.program = program
        self.profile = program.profile
        p = self.profile
        self.rng = random.Random(f"walk:{p.name}:{program.seed}:{seed}")
        self._cur_block = 0
        self._call_stack: List[int] = []
        self._loop_count = [0] * program.num_blocks
        self._branch_hist = [0] * program.num_blocks
        self._recent_dests: List[int] = [1, 2, 3, 4]
        self._last_load_dest = REG_NONE
        self._dest_cursor = 1
        page = 8192
        self._hot_base = DATA_BASE
        self._cold_base = DATA_BASE + p.hot_pages * page
        self._stream_ptrs = [
            self._cold_base + i * (p.cold_pages * page // max(1, self.NUM_STREAMS))
            for i in range(self.NUM_STREAMS)
        ]
        self._stream_idx = 0
        self._cold_page = 0
        # Seed the hot pool with a few addresses so early reuse works.
        self._hot_pool = [
            self._hot_base + self.rng.randrange(p.hot_pages * page // 8) * 8
            for _ in range(8)
        ]
        self._hot_pool_pos = 0
        self._phase_budget = self._draw_phase()
        self._region_ptr = 0
        # Cumulative thresholds over body (non-control) instruction classes:
        # (load, store, mul, fp, int).
        body_total = p.load_frac + p.store_frac + p.mul_frac + p.fp_frac + p.int_frac
        c1 = p.load_frac / body_total
        c2 = c1 + p.store_frac / body_total
        c3 = c2 + p.mul_frac / body_total
        c4 = c3 + p.fp_frac / body_total
        self._mix_cum = (c1, c2, c3, c4)
        self._dep_p = 1.0 / max(1.0, p.dep_distance_mean)

    def _draw_phase(self) -> int:
        """Phase length: mean PHASE_INSTRS with +/-60% jitter."""
        lo = int(self.PHASE_INSTRS * 0.4)
        hi = int(self.PHASE_INSTRS * 1.6)
        return self.rng.randint(lo, hi)

    # ------------------------------------------------------------------ regs

    def _next_dest(self, is_fp: bool) -> int:
        """Round-robin destination allocation over r1..r30 (or f1..f30)."""
        self._dest_cursor += 1
        if self._dest_cursor >= 31:
            self._dest_cursor = 1
        if is_fp:
            return fp_reg(self._dest_cursor)
        return self._dest_cursor

    def _dep_source(self) -> int:
        """A source register at a geometric dependency distance."""
        rng = self.rng
        recents = self._recent_dests
        if rng.random() < 0.85:
            # geometric distance, 1 = the immediately preceding producer
            d = 1
            while rng.random() > self._dep_p and d < len(recents):
                d += 1
            return recents[-d]
        return rng.randint(1, NUM_INT_REGS - 2)

    def _note_dest(self, reg: int) -> None:
        recents = self._recent_dests
        recents.append(reg)
        if len(recents) > 32:
            del recents[0]

    # --------------------------------------------------------------- address

    def _data_address(self) -> int:
        """Next data address from the stream/hot/cold mixture.

        * *stream* — one of ``NUM_STREAMS`` sequential scans over the cold
          region, advancing slowly (spatial locality: ~16 touches/line);
        * *hot* — drawn from a small recently-used pool most of the time
          (temporal locality: stack/globals, reuse distance « L1), with
          occasional fresh addresses refreshing the pool;
        * *cold* — clustered page-at-a-time random accesses over the full
          working set (the capacity/TLB-missing part; its weight is what
          separates the MEM benchmarks from the ILP ones).
        """
        p = self.profile
        rng = self.rng
        page = 8192
        r = rng.random()
        if r < p.stream_frac:
            i = self._stream_idx
            self._stream_idx = (i + 1) % self.NUM_STREAMS
            addr = self._stream_ptrs[i]
            if rng.random() < self.STREAM_ADVANCE_P:
                nxt = addr + 8
                if nxt >= self._cold_base + p.cold_pages * page:
                    nxt = self._cold_base
                self._stream_ptrs[i] = nxt
            return addr
        if rng.random() < p.hot_frac:
            pool = self._hot_pool
            if rng.random() < self.HOT_POOL_REUSE_P:
                return pool[rng.randrange(len(pool))]
            addr = self._hot_base + rng.randrange(p.hot_pages * page // 8) * 8
            if len(pool) < self.HOT_POOL_SIZE:
                pool.append(addr)
            else:
                pool[self._hot_pool_pos] = addr
                self._hot_pool_pos = (self._hot_pool_pos + 1) % self.HOT_POOL_SIZE
            return addr
        if rng.random() < self.COLD_JUMP_P:
            self._cold_page = rng.randrange(max(1, p.cold_pages))
        return self._cold_base + self._cold_page * page + rng.randrange(page // 8) * 8

    # ---------------------------------------------------------------- branch

    def _branch_outcome(self, b: int) -> bool:
        """Resolve the behaviour state machine of static branch ``b``."""
        prog = self.program
        kind = prog.branch_kind[b]
        if kind == KIND_LOOP:
            trip = int(prog.branch_param[b])
            c = self._loop_count[b] + 1
            if c >= trip:
                self._loop_count[b] = 0
                taken = False
            else:
                self._loop_count[b] = c
                taken = True
        elif kind == KIND_PATTERN:
            hist = self._branch_hist[b]
            pos, sign = prog.branch_taps[b]  # type: ignore[misc]
            s = 0
            for j, g in zip(pos, sign):
                s += g if (hist >> j) & 1 else -g
            taken = s >= 0
        else:
            taken = self.rng.random() < prog.branch_param[b]
        self._branch_hist[b] = ((self._branch_hist[b] << 1) | (1 if taken else 0)) & 0x3FF
        return taken

    # ------------------------------------------------------------------ main

    def generate(
        self, n: int, sink: Optional[Callable[[List[TraceEntry]], None]] = None
    ) -> Optional[List[TraceEntry]]:
        """Emit ``n`` dynamic instructions (packed tuples).

        Without a ``sink``, returns them as one list. With one, hands
        them over in chunks instead and returns ``None``: ``sink(chunk)``
        runs each time at least :data:`SINK_CHUNK` entries have built up
        at a block boundary, and once more for the rest, so no caller
        ever holds the whole window as tuples. A chunk list belongs to
        the sink once passed. The RNG is drawn identically either way:
        the walk finishes the block that crosses ``n`` and drops the
        overshoot, so the state (and any junk drawn next) is the same.
        """
        out: List[TraceEntry] = []
        append = out.append
        remaining = n  # entries still owed, counting those in ``out``
        prog = self.program
        p = self.profile
        rng = self.rng
        mix = self._mix_cum
        two_src = p.two_src_frac
        chain = p.chain_frac
        while len(out) < remaining:
            b = self._cur_block
            pc = prog.block_pc[b]
            size = prog.block_size[b]
            # ---- body instructions ------------------------------------
            for k in range(size - 1):
                ipc = pc + 4 * k
                r = rng.random()
                if r < mix[0]:  # load
                    if chain and self._last_load_dest != REG_NONE and rng.random() < chain:
                        src1 = self._last_load_dest
                    else:
                        src1 = self._dep_source()
                    dest = self._next_dest(False)
                    append((OP_LOAD, dest, src1, REG_NONE, self._data_address(), 0, ipc))
                    self._note_dest(dest)
                    self._last_load_dest = dest
                elif r < mix[1]:  # store
                    src1 = self._dep_source()
                    src2 = self._dep_source()
                    append((OP_STORE, REG_NONE, src1, src2, self._data_address(), 0, ipc))
                elif r < mix[2]:  # mul
                    src1 = self._dep_source()
                    src2 = self._dep_source() if rng.random() < two_src else REG_NONE
                    dest = self._next_dest(False)
                    append((OP_MUL, dest, src1, src2, 0, 0, ipc))
                    self._note_dest(dest)
                elif r < mix[3]:  # fp
                    src1 = self._dep_source()
                    src2 = self._dep_source() if rng.random() < two_src else REG_NONE
                    dest = self._next_dest(True)
                    append((OP_FP, dest, src1, src2, 0, 0, ipc))
                    self._note_dest(dest)
                else:  # plain int ALU
                    src1 = self._dep_source()
                    src2 = self._dep_source() if rng.random() < two_src else REG_NONE
                    dest = self._next_dest(False)
                    append((OP_INT, dest, src1, src2, 0, 0, ipc))
                    self._note_dest(dest)
            # ---- terminator ---------------------------------------------
            tpc = pc + 4 * (size - 1)
            term = prog.block_term[b]
            if term == TERM_CALL:
                append((OP_CALL, REG_NONE, REG_NONE, REG_NONE, 0, 1, tpc))
                if len(self._call_stack) >= _MAX_CALL_DEPTH:
                    del self._call_stack[0]
                self._call_stack.append((b + 1) % prog.num_blocks)
                self._cur_block = prog.block_target[b]
            elif term == TERM_RET:
                append((OP_RETURN, REG_NONE, REG_NONE, REG_NONE, 0, 1, tpc))
                if self._call_stack:
                    self._cur_block = self._call_stack.pop()
                else:
                    self._cur_block = rng.randrange(prog.num_blocks)
            else:
                src1 = self._dep_source()
                if self._phase_budget <= 0:
                    # Phase change: this branch jumps (taken) to the head
                    # of the next code region. The behaviour state machine
                    # still advances so it resumes coherently later.
                    self._branch_outcome(b)
                    append((OP_BRANCH, REG_NONE, src1, REG_NONE, 0, 1, tpc))
                    rb = StaticProgram.REGION_BLOCKS
                    nregions = max(1, prog.num_blocks // rb)
                    self._region_ptr = (self._region_ptr + 1) % nregions
                    self._cur_block = self._region_ptr * rb
                    self._phase_budget = self._draw_phase()
                else:
                    taken = self._branch_outcome(b)
                    append(
                        (OP_BRANCH, REG_NONE, src1, REG_NONE, 0, 1 if taken else 0, tpc)
                    )
                    if taken:
                        self._cur_block = prog.block_target[b]
                    else:
                        self._cur_block = (b + 1) % prog.num_blocks
            self._phase_budget -= size
            if sink is not None and SINK_CHUNK <= len(out) < remaining:
                sink(out)
                remaining -= len(out)
                out = []
                append = out.append
        del out[remaining:]
        if sink is None:
            return out
        if out:
            sink(out)
        return None

    def generate_junk(self, n: int) -> List[TraceEntry]:
        """Wrong-path filler instructions (no control transfers).

        Fetched after a mispredicted branch until it resolves; they consume
        fetch/rename/issue bandwidth, queue slots and rename registers, and
        their loads pollute the caches — the costs wrong-path execution
        exists to model.
        """
        out: List[TraceEntry] = []
        append = out.append
        rng = self.rng
        p = self.profile
        pc = CODE_BASE + self.program.code_bytes  # distinct bogus region
        for i in range(n):
            ipc = pc + 4 * (i % 4096)
            dest = 1 + (i % 30)
            src1 = 1 + ((i * 7) % 30)
            if rng.random() < p.load_frac:
                append((OP_LOAD, dest, src1, REG_NONE, self._data_address(), 0, ipc))
            else:
                append((OP_INT, dest, src1, REG_NONE, 0, 0, ipc))
        return out

