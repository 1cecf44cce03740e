"""Unit tests: the multipipeline processor's timing behaviours.

These tests drive the processor with hand-built traces so each modeled
mechanism (dependencies, FU contention, queue capacity, mispredict
squash, FLUSH, register-file tax) is observable in isolation.
"""

import gc
import weakref

import pytest

from repro.core.config import (
    STANDARD_CONFIG_NAMES,
    BaselineParams,
    MicroarchConfig,
    get_config,
)
from repro.core.mapping import enumerate_mappings
from repro.core.models import M2, M8
from repro.core.engine import Processor, S_FREE
from repro.core.simulation import run_simulation
from repro.isa.opcodes import OP_BRANCH, OP_INT, OP_LOAD, OP_MUL, OP_STORE
from repro.isa.registers import REG_NONE
from repro.runner import SimJob
from repro.trace.stream import trace_for


@pytest.fixture
def run_m8(hand_trace):
    """Run one hand-built trace on the M8 baseline (shared hand_trace
    factory from tests/conftest.py)."""

    def run(entries, target, warm=True, **cfg_kw):
        cfg = get_config("M8")
        if cfg_kw:
            from dataclasses import replace

            cfg = replace(cfg, **cfg_kw)
        proc = Processor(cfg, [hand_trace(entries)], (0,), target)
        if warm:
            proc.warm()
        proc.run()
        return proc

    return run


def seq_ints(n, independent=True):
    """n INT instructions, independent or a serial chain."""
    out = []
    for i in range(n):
        if independent:
            out.append((OP_INT, 1 + (i % 16), REG_NONE, REG_NONE, 0, 0, 0x40_0000 + 4 * i))
        else:
            out.append((OP_INT, 1, 1, REG_NONE, 0, 0, 0x40_0000 + 4 * i))
    return out


def test_independent_ints_limited_by_int_units(run_m8):
    proc = run_m8(seq_ints(4000), 3000)
    # M8 has 6 integer units; IPC must be ~6, never above.
    assert 5.0 < proc.aggregate_ipc() <= 6.0


def test_serial_chain_one_per_cycle(run_m8):
    proc = run_m8(seq_ints(4000, independent=False), 3000)
    assert proc.aggregate_ipc() == pytest.approx(1.0, abs=0.05)


def test_mul_latency_slows_chain(run_m8):
    entries = [(OP_MUL, 1, 1, REG_NONE, 0, 0, 0x40_0000 + 4 * i) for i in range(2000)]
    proc = run_m8(entries, 1000)
    # 3-cycle multiply chain: 1/3 IPC.
    assert proc.aggregate_ipc() == pytest.approx(1 / 3, abs=0.03)


def test_register_latency_tax(run_m8, hand_trace):
    """reg_latency=2 adds one cycle of result visibility per dependent
    edge: a serial chain halves its throughput."""
    from dataclasses import replace

    chain = seq_ints(2000, independent=False)
    base = run_m8(chain, 1000)
    cfg = get_config("M8")
    taxed_cfg = replace(cfg, params=replace(cfg.params, reg_latency=2))
    proc = Processor(taxed_cfg, [hand_trace(chain)], (0,), 1000)
    proc.warm()
    proc.run()
    assert base.aggregate_ipc() == pytest.approx(1.0, abs=0.05)
    assert proc.aggregate_ipc() == pytest.approx(1 / 2, abs=0.03)


def test_load_hit_latency_chain(run_m8):
    """Chained L1-hit loads: one every l1_latency cycles."""
    entries = [
        (OP_LOAD, 1, 1, REG_NONE, 0x1000_0000, 0, 0x40_0000 + 4 * i) for i in range(2000)
    ]
    proc = run_m8(entries, 600)
    assert proc.aggregate_ipc() == pytest.approx(1 / 3, abs=0.04)


def test_store_retires_through_cache(run_m8):
    entries = []
    for i in range(1000):
        entries.append((OP_STORE, REG_NONE, 1, 2, 0x1000_0000 + (i % 64) * 64, 0, 0x40_0000 + 4 * i))
    proc = run_m8(entries, 500)
    assert proc.mem.l1d.stats.accesses >= 500


def test_commit_in_order_and_complete(run_m8):
    proc = run_m8(seq_ints(3000), 2000)
    assert proc.committed[0] >= 2000
    # After the run, every ROB slot between head and tail is consistent.
    t = 0
    n_inflight = proc.rob_count[t]
    assert 0 <= n_inflight <= proc.rob_entries


def test_mispredict_squashes_and_redirects(run_m8):
    # Alternating branch (learnable) followed by a random-ish pattern the
    # predictor cannot know at first: check wrong-path stats appear.
    entries = []
    for i in range(3000):
        taken = (i * 7919) % 3 == 0  # aperiodic, hard pattern
        entries.append((OP_BRANCH, REG_NONE, 1, REG_NONE, 0, 1 if taken else 0, 0x40_0000 + 4 * i))
    proc = run_m8(entries, 800, warm=False)
    assert sum(proc.stat_mispredicts) > 0
    assert sum(proc.stat_wrongpath_fetched) > 0
    assert sum(proc.stat_squashed) > 0
    assert proc.committed[0] >= 800


def test_flush_triggers_on_l2_miss_loads(run_m8):
    """mcf-like pointer chase on the FLUSH baseline must flush."""
    entries = []
    for i in range(3000):
        addr = 0x1000_0000 + (i * 8192 * 7) % (512 * 8192)  # page-hopping
        entries.append((OP_LOAD, 1, 1, REG_NONE, addr, 0, 0x40_0000 + 4 * (i % 256)))
    proc = run_m8(entries, 300, warm=False)
    assert sum(proc.stat_flushes) > 0


def test_no_flush_on_l1mcount_policy(hand_trace):
    entries = []
    for i in range(2000):
        addr = 0x1000_0000 + (i * 8192 * 7) % (512 * 8192)
        entries.append((OP_LOAD, 1, 1, REG_NONE, addr, 0, 0x40_0000 + 4 * (i % 256)))
    cfg = MicroarchConfig(
        name="m8-l1m", pipelines=(M8,), fetch_policy="l1mcount", params=BaselineParams()
    )
    proc = Processor(cfg, [hand_trace(entries)], (0,), 200)
    proc.run()
    assert sum(proc.stat_flushes) == 0


def test_narrow_pipeline_caps_throughput(hand_trace):
    cfg = MicroarchConfig(
        name="1M2",
        pipelines=(M2,),
        fetch_policy="l1mcount",
        params=BaselineParams(reg_latency=2),
    )
    proc = Processor(cfg, [hand_trace(seq_ints(4000))], (0,), 2000)
    proc.warm()
    proc.run()
    # Width 2, one int unit: IPC <= 1 for pure INT work.
    assert proc.aggregate_ipc() <= 1.01


def test_mapping_validation(hand_trace):
    cfg = get_config("2M4+2M2")
    tr = hand_trace(seq_ints(100))
    with pytest.raises(ValueError):
        Processor(cfg, [tr, tr, tr], (2, 2, 2), 50)  # M2 has 1 context
    with pytest.raises(ValueError):
        Processor(cfg, [tr], (9,), 50)
    with pytest.raises(ValueError):
        Processor(cfg, [], (), 50)


def test_m8_context_overcommit_six_threads(hand_trace):
    cfg = get_config("M8")
    trs = [hand_trace(seq_ints(500)) for _ in range(6)]
    proc = Processor(cfg, trs, (0,) * 6, 100)
    proc.run()
    assert sum(proc.committed) >= 100


def test_fetch_limited_to_8_per_cycle(run_m8):
    proc = run_m8(seq_ints(4000), 2000)
    assert max(proc.stat_fetched) <= 8 * proc.cycle


def test_max_cycles_safety_net(hand_trace):
    proc = Processor(get_config("M8"), [hand_trace(seq_ints(100))], (0,), 10**9)
    cycles = proc.run(max_cycles=50)
    assert cycles == 50
    assert not proc.finished


def test_phys_reg_conservation_after_run(run_m8, rob_view):
    proc = run_m8(seq_ints(4000), 2000)
    # Free + held-by-in-flight must equal the pool size.
    held = 0
    t = 0
    r = proc.rob_entries
    state, entry = rob_view(proc, "state")[t], rob_view(proc, "entry")[t]
    i = proc.rob_head[t]
    for _ in range(proc.rob_count[t]):
        if state[i] != S_FREE and entry[i][1] >= 0:
            held += 1
        i = (i + 1) % r
    assert proc.phys_free + held == proc.params.rename_registers


# -- acyclicity: pool workers run with the cyclic GC off ---------------------


@pytest.fixture
def no_cyclic_gc():
    """The pool workers' discipline (``gc.disable()``): only reference
    counting frees, so a processor caught in a reference cycle stays."""
    gc.collect()
    gc.disable()
    yield
    gc.enable()


def _live_processors():
    return sum(isinstance(o, Processor) for o in gc.get_objects())


@pytest.mark.parametrize("how", ["run", "step", "memo-restore"])
@pytest.mark.parametrize("config_name", STANDARD_CONFIG_NAMES)
def test_processor_is_freed_without_cyclic_gc(no_cyclic_gc, config_name, how):
    cfg = get_config(config_name)
    mapping = enumerate_mappings(cfg, 2)[-1]
    traces = [trace_for(b, 1000) for b in ("gzip", "twolf")]
    if how == "memo-restore":
        Processor(cfg, traces, mapping, 300).warm()  # fills the warm memo
    proc = Processor(cfg, traces, mapping, 300)
    proc.warm()
    if how == "run":
        proc.run()
        assert proc.finished
    elif how == "step":
        for _ in range(20):
            proc.step()
    ref = weakref.ref(proc)
    del proc
    assert ref() is None


def test_simulation_entry_points_leave_no_live_processor(no_cyclic_gc):
    before = _live_processors()
    run_simulation("2M4+2M2", ("gzip", "twolf", "bzip2"), (0, 1, 2), 300)
    SimJob("M8", ("gzip", "twolf"), (0, 0), 300).execute()
    assert _live_processors() == before
