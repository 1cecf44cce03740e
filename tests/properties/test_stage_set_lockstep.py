"""Lockstep suite for the single stage set on every standard configuration.

Each processor keeps :func:`~repro.core.engine.stages.stage_set_for`'s
(fetch, issue, commit) stage set from construction. This suite drives
that one stage set on every standard configuration with 2-, 4- and
6-thread workloads at their most spread mapping, and checks three
things:

* the constructor keeps exactly the stage set ``stage_set_for`` returns;
* ``run()``, with idle-cycle skipping, ends in the same state as a pure
  ``step()`` loop;
* two processors restored from the same warm snapshot, run one after
  the other, each match a processor stepped alone, cycle for cycle, on
  the complete ROB state, the pending-event schedule (content and
  order) and every counter. State the first processor writes through
  to the shared snapshot shows up as a divergence of the second.
"""

import pytest

from repro.core.config import STANDARD_CONFIG_NAMES, get_config
from repro.core.engine import Processor
from repro.core.engine.stages import stage_set_for
from repro.core.mapping import enumerate_mappings
from repro.trace.stream import trace_for

WORKLOADS = [
    ("2-thread", ("mcf", "twolf")),
    ("4-thread", ("gzip", "twolf", "bzip2", "mcf")),
    ("6-thread", ("gzip", "gcc", "crafty", "eon", "gap", "bzip2")),
]

SCENARIOS = [
    pytest.param(config, benches, id=f"{config}-{label}")
    for config in STANDARD_CONFIG_NAMES
    for label, benches in WORKLOADS
]

LOCKSTEP_CYCLES = 300
COMMIT_TARGET = 400


def _build(config_name, benches, commit_target):
    cfg = get_config(config_name)
    mapping = enumerate_mappings(cfg, len(benches))[-1]
    traces = [trace_for(b, 1500) for b in benches]
    proc = Processor(cfg, traces, mapping, commit_target)
    proc.warm()
    return proc


def _machine_state(proc: Processor) -> tuple:
    """Everything the stages can influence, cycle-granular."""
    return (
        proc.cycle,
        proc.seq,
        proc.phys_free,
        proc._ready_count,
        proc._commitable,
        tuple(proc.committed),
        tuple(proc.icount),
        tuple(proc.inflight_loads),
        tuple(proc.fetch_idx),
        tuple(proc.junk_idx),
        tuple(proc.wrong_path),
        tuple(proc.flush_wait),
        tuple(proc.fetch_stall_until),
        tuple(proc.rob_head),
        tuple(proc.rob_tail),
        tuple(proc.rob_count),
        tuple(proc._rob_state),
        tuple(proc._rob_seq),
        tuple(proc._rob_epoch),
        tuple(proc._rob_flags),
        tuple(tuple(m) for m in proc.reg_map),
        tuple(pl.issued_total for pl in proc.pipelines),
        tuple(tuple(pl.iq_used) for pl in proc.pipelines),
        tuple(len(pl.buffer) for pl in proc.pipelines),
        # Events append in issue order, so equal schedules also pin the
        # within-cycle pick order.
        tuple(sorted((when, tuple(evs)) for when, evs in proc.events.items())),
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


@pytest.mark.parametrize("config_name", STANDARD_CONFIG_NAMES)
def test_constructor_binds_the_stage_set(config_name):
    proc = _build(config_name, ("gzip", "twolf"), 100)
    assert proc._stages is stage_set_for(proc.config)


@pytest.mark.parametrize("config_name, benches", SCENARIOS)
def test_full_run_equals_pure_stepping(config_name, benches):
    fast = _build(config_name, benches, COMMIT_TARGET)
    fast.run()

    slow = _build(config_name, benches, COMMIT_TARGET)
    max_cycles = 400 * COMMIT_TARGET + 10_000
    while not slow.finished and slow.cycle < max_cycles:
        slow.step()

    assert fast.finished
    assert _final_state(fast) == _final_state(slow)


@pytest.mark.parametrize("config_name, benches", SCENARIOS)
def test_processors_sharing_a_warm_snapshot_run_independently(config_name, benches):
    solo = _build(config_name, benches, 10**9)
    reference = []
    for _ in range(LOCKSTEP_CYCLES):
        solo.step()
        reference.append(_machine_state(solo))

    # Both restore before either runs; the second then starts from
    # whatever the first left behind in anything they share.
    first = _build(config_name, benches, 10**9)
    second = _build(config_name, benches, 10**9)
    for proc in (first, second):
        for cycle, expected in enumerate(reference):
            proc.step()
            assert _machine_state(proc) == expected, f"diverged at cycle {cycle}"
