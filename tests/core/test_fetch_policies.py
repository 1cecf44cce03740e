"""Unit tests: fetch-policy priority orders."""

import pytest

from repro.core.config import get_config
from repro.core.fetch_policies import (
    FlushPolicy,
    ICountPolicy,
    L1MCountPolicy,
    RoundRobinPolicy,
    make_policy,
)
from repro.core.engine import Processor
from repro.trace.stream import trace_for


def make_proc(cfg_name="2M4+2M2", benches=("eon", "mcf"), mapping=(0, 2)):
    cfg = get_config(cfg_name)
    traces = [trace_for(b, 1000) for b in benches]
    return Processor(cfg, traces, mapping, commit_target=100)


def test_make_policy():
    assert isinstance(make_policy("icount"), ICountPolicy)
    assert isinstance(make_policy("flush"), FlushPolicy)
    assert isinstance(make_policy("l1mcount"), L1MCountPolicy)
    assert isinstance(make_policy("roundrobin"), RoundRobinPolicy)
    with pytest.raises(KeyError):
        make_policy("nope")


def test_flush_flag():
    assert make_policy("flush").flushing
    assert not make_policy("icount").flushing
    assert not make_policy("l1mcount").flushing


def test_icount_prefers_emptier_thread():
    proc = make_proc()
    proc.icount[0] = 10
    proc.icount[1] = 2
    pol = ICountPolicy()
    assert pol.sort_key(proc, 1) < pol.sort_key(proc, 0)


def test_l1mcount_prefers_fewer_inflight_loads():
    proc = make_proc()
    proc.inflight_loads[0] = 3
    proc.inflight_loads[1] = 0
    proc.icount[0] = 0
    proc.icount[1] = 50
    pol = L1MCountPolicy()
    # Loads dominate icount.
    assert pol.sort_key(proc, 1) < pol.sort_key(proc, 0)


def test_l1mcount_tie_broken_by_pipeline_width():
    # Thread 0 on M4 (width 4), thread 1 on M2 (width 2); equal loads.
    proc = make_proc(mapping=(0, 2))
    pol = L1MCountPolicy()
    proc.icount[0] = proc.icount[1] = 0
    assert pol.sort_key(proc, 0) < pol.sort_key(proc, 1)


def test_l1mcount_final_tie_is_icount():
    proc = make_proc(benches=("eon", "gcc"), mapping=(0, 1))  # both M4
    pol = L1MCountPolicy()
    proc.icount[0] = 5
    proc.icount[1] = 1
    assert pol.sort_key(proc, 1) < pol.sort_key(proc, 0)


def test_round_robin_rotates():
    proc = make_proc(benches=("eon", "gcc"), mapping=(0, 1))
    pol = RoundRobinPolicy()
    proc.cycle = 0
    first_at_0 = min(range(2), key=lambda t: pol.sort_key(proc, t))
    proc.cycle = 1
    first_at_1 = min(range(2), key=lambda t: pol.sort_key(proc, t))
    assert first_at_0 != first_at_1
