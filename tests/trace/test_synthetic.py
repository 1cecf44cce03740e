"""Unit tests: static program and trace generator."""

from collections import Counter

import pytest

from repro.isa.opcodes import (
    OP_BRANCH,
    OP_CALL,
    OP_FP,
    OP_LOAD,
    OP_MUL,
    OP_RETURN,
    OP_STORE,
)
from repro.isa.registers import REG_NONE
from repro.trace.benchmarks import BENCHMARK_NAMES, get_benchmark
from repro.trace.synthetic import (
    StaticProgram,
    TERM_BRANCH,
    TERM_CALL,
    TERM_RET,
    TraceGenerator,
)


def _generate(name, n, seed=0):
    """``n`` entries walked from ``name``'s program at seed 0."""
    program = StaticProgram(get_benchmark(name), 0)
    return TraceGenerator(program, seed).generate(n)


@pytest.fixture(scope="module")
def gzip_prog():
    return StaticProgram(get_benchmark("gzip"), seed=0)


@pytest.fixture(scope="module")
def gzip_trace(gzip_prog):
    return TraceGenerator(gzip_prog, seed=0).generate(12_000)


def test_program_deterministic():
    p1 = StaticProgram(get_benchmark("gzip"), seed=0)
    p2 = StaticProgram(get_benchmark("gzip"), seed=0)
    assert p1.block_pc == p2.block_pc
    assert p1.block_term == p2.block_term
    assert p1.block_target == p2.block_target


def test_different_seed_different_program():
    p1 = StaticProgram(get_benchmark("gzip"), seed=0)
    p2 = StaticProgram(get_benchmark("gzip"), seed=1)
    assert p1.block_term != p2.block_term or p1.block_size != p2.block_size


def test_blocks_laid_out_contiguously(gzip_prog):
    for b in range(gzip_prog.num_blocks - 1):
        end = gzip_prog.block_pc[b] + 4 * gzip_prog.block_size[b]
        assert gzip_prog.block_pc[b + 1] == end


def test_terminators_valid(gzip_prog):
    assert set(gzip_prog.block_term) <= {TERM_BRANCH, TERM_CALL, TERM_RET}
    assert gzip_prog.static_branch_count() > 0


def test_call_targets_are_function_entries(gzip_prog):
    entries = set(gzip_prog.func_entries)
    for b in range(gzip_prog.num_blocks):
        if gzip_prog.block_term[b] == TERM_CALL:
            assert gzip_prog.block_target[b] in entries


def test_trace_deterministic():
    t1 = _generate("eon", 2000, seed=3)
    t2 = _generate("eon", 2000, seed=3)
    assert t1 == t2


def test_trace_length_exact(gzip_trace):
    assert len(gzip_trace) == 12_000


def test_instruction_mix_close_to_profile(gzip_trace):
    prof = get_benchmark("gzip")
    n = len(gzip_trace)
    counts = Counter(e[0] for e in gzip_trace)
    load = counts[OP_LOAD] / n
    store = counts[OP_STORE] / n
    # Body-class fractions: terminators displace ~branch_frac of the mix;
    # allow generous tolerance (statistical + control-flow weighting).
    assert abs(load - prof.load_frac) < 0.06
    assert abs(store - prof.store_frac) < 0.05
    branch = (counts[OP_BRANCH] + counts[OP_CALL] + counts[OP_RETURN]) / n
    assert 0.05 < branch < 0.3


def test_pcs_follow_block_layout(gzip_trace, gzip_prog):
    pcs = {e[6] for e in gzip_trace}
    lo = gzip_prog.block_pc[0]
    hi = gzip_prog.block_pc[-1] + 4 * gzip_prog.block_size[-1]
    assert all(lo <= pc < hi for pc in pcs)
    assert all(pc % 4 == 0 for pc in pcs)


def test_taken_branch_changes_pc_flow(gzip_trace):
    # After a taken control transfer the next pc differs from pc+4; after
    # a not-taken branch it is exactly pc+4.
    checked_taken = checked_nt = 0
    for i, e in enumerate(gzip_trace[:-1]):
        if e[0] == OP_BRANCH:
            nxt = gzip_trace[i + 1][6]
            if e[5]:
                checked_taken += 1
            else:
                assert nxt == e[6] + 4
                checked_nt += 1
    assert checked_taken > 50 and checked_nt > 50


def test_calls_and_returns_roughly_balance(gzip_trace):
    counts = Counter(e[0] for e in gzip_trace)
    calls, rets = counts[OP_CALL], counts[OP_RETURN]
    assert calls > 0 and rets > 0
    assert 0.4 < calls / max(1, rets) < 2.5


def test_loads_have_addresses_and_dest(gzip_trace):
    for e in gzip_trace:
        if e[0] == OP_LOAD:
            assert e[4] > 0
            assert e[1] != REG_NONE
        if e[0] == OP_STORE:
            assert e[4] > 0
            assert e[1] == REG_NONE


def test_mul_fp_present_when_profiled():
    t = _generate("eon", 10_000)
    counts = Counter(e[0] for e in t)
    assert counts[OP_FP] > 0
    assert counts[OP_MUL] > 0


def test_junk_has_no_branches():
    prog = StaticProgram(get_benchmark("gzip"), 0)
    junk = TraceGenerator(prog, 0).generate_junk(500)
    assert len(junk) == 500
    assert all(e[0] in (OP_LOAD, 0) for e in junk)  # loads or OP_INT


def test_addresses_within_working_set(gzip_trace):
    prof = get_benchmark("gzip")
    from repro.trace.synthetic import DATA_BASE

    hi = DATA_BASE + prof.working_set_bytes
    for e in gzip_trace:
        if e[0] in (OP_LOAD, OP_STORE):
            assert DATA_BASE <= e[4] < hi


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_every_benchmark_trace_tracks_its_profile(name):
    """Each benchmark's generated stream carries its profiled instruction
    mix (mul and fp only where profiled) and touches only its working
    set: the ordering the workload classes rest on comes from here."""
    from repro.trace.synthetic import DATA_BASE

    prof = get_benchmark(name)
    trace = _generate(name, 12_000)
    n = len(trace)
    counts = Counter(e[0] for e in trace)
    branch = counts[OP_BRANCH] + counts[OP_CALL] + counts[OP_RETURN]
    assert abs(counts[OP_LOAD] / n - prof.load_frac) < 0.03
    assert abs(counts[OP_STORE] / n - prof.store_frac) < 0.02
    assert abs(branch / n - prof.branch_frac) < 0.04
    assert abs(counts[OP_MUL] / n - prof.mul_frac) < 0.01
    assert abs(counts[OP_FP] / n - prof.fp_frac) < 0.01
    assert (counts[OP_FP] > 0) == (prof.fp_frac > 0)
    hi = DATA_BASE + prof.working_set_bytes
    assert all(DATA_BASE <= e[4] < hi for e in trace
               if e[0] in (OP_LOAD, OP_STORE))
