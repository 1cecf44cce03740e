"""Tests: dynamic thread-to-pipeline remapping (§7 future work)."""

import pytest

from repro.core.config import get_config
from repro.core.dynamic import remap_threads, run_dynamic
from repro.core.engine import Processor
from repro.trace.composite import composite_trace
from repro.trace.stream import trace_for


def test_run_dynamic_basic():
    res = run_dynamic(
        "2M4+2M2",
        ["eon", "mcf"],
        commit_target=1500,
        epoch_cycles=500,
    )
    assert res.result.committed and max(res.result.committed) >= 1500
    assert res.epochs >= 1
    assert res.result.ipc > 0


def test_dynamic_learns_static_heuristic_on_stationary_threads():
    """Stationary behaviour: after the first epochs the dynamic mapping
    must settle on a mapping that keeps the memory hog off the wide
    pipeline (the same bet the static heuristic makes)."""
    res = run_dynamic(
        "2M4+2M2",
        ["eon", "mcf"],
        initial_mapping=(2, 0),  # deliberately backwards: mcf on an M4
        commit_target=2500,
        epoch_cycles=400,
    )
    cfg = get_config("2M4+2M2")
    final = res.mapping_history[-1]
    assert res.remaps >= 1, "the backwards mapping must be corrected"
    assert cfg.pipelines[final[0]].width >= cfg.pipelines[final[1]].width


def test_dynamic_adapts_to_phase_change():
    """A thread that turns memory-bound mid-run loses its dedicated wide
    pipeline — the scenario §7 motivates dynamic mapping with.

    With the paper's heuristic, a 3-thread workload on 2M4+2M2 dedicates
    the widest pipeline to the *best-behaved* thread. Initially that is
    the changing thread (gzip phase, mapped alone on M4[0]); once its mcf
    phase starts the online heuristic must re-rank and demote it to
    sharing, handing the dedicated pipeline to a steady thread.
    """
    length = 24_000
    changing = composite_trace("gzip", "mcf", length, switch_at=3_000)
    steady1 = trace_for("bzip2", length)
    steady2 = trace_for("gap", length)
    res = run_dynamic(
        "2M4+2M2",
        ["changing", "steady1", "steady2"],
        traces=[changing, steady1, steady2],
        initial_mapping=(0, 1, 1),  # changing dedicated, steadies share
        commit_target=10_000,
        epoch_cycles=700,
    )
    final = res.mapping_history[-1]
    assert res.migrations >= 1
    # The changing thread no longer has a pipeline to itself.
    sharers = sum(1 for p in final if p == final[0])
    assert sharers >= 2, f"changing thread still dedicated: {final}"


def test_remap_requires_drained_thread():
    cfg = get_config("2M4+2M2")
    traces = [trace_for("eon", 1500)]
    proc = Processor(cfg, traces, (0,), commit_target=10**9)
    proc.warm()
    for _ in range(60):
        proc.step()
    assert proc.rob_count[0] > 0
    with pytest.raises(RuntimeError):
        remap_threads(proc, (2,))


def test_remap_moves_thread():
    cfg = get_config("2M4+2M2")
    traces = [trace_for("eon", 1500)]
    proc = Processor(cfg, traces, (0,), commit_target=10**9)
    # Never fetched: trivially drained.
    moved = remap_threads(proc, (3,))
    assert moved == 1
    assert proc.pipe_of[0] == 3
    assert 0 in proc.pipelines[3].threads
    assert 0 not in proc.pipelines[0].threads


def test_monolithic_rejected():
    with pytest.raises(ValueError):
        run_dynamic("M8", ["eon"], commit_target=500)


def test_composite_trace_structure():
    t = composite_trace("gzip", "mcf", 2000, switch_at=700)
    assert len(t) == 2000
    assert t.name == "gzip->mcf"
    with pytest.raises(ValueError):
        composite_trace("gzip", "mcf", 1000, switch_at=1000)


def test_composite_trace_changes_memory_behaviour():
    """Phase B (mcf) must produce far more distinct data pages than
    phase A (gzip)."""
    t = composite_trace("gzip", "mcf", 8000, switch_at=4000)
    def pages(entries):
        return {e[4] >> 13 for e in entries if e[0] in (3, 4) and e[4]}
    a = pages(t.entries[:4000])
    b = pages(t.entries[4000:])
    assert len(b) > 2 * len(a)
