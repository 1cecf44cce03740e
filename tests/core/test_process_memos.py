"""The per-process trace and warm memos stay bounded and pin nothing.

A process that simulates inline (``repro serve``, a serial sweep) or a
pool worker that runs bundle after bundle keeps a small LRU of traces
and one of warm snapshots. These tests pin the bounds, that evicted
traces are freed, that a warm snapshot keyed on content keys survives
its traces' eviction, that the profile pass leaves no window behind,
and that a bundle's workload-by-workload order returns per-run results.
"""

import gc

import pytest

import repro.core.engine.warm as warm
import repro.trace.stream as stream
from repro.core.config import get_config
from repro.core.engine import Processor
from repro.core.mapping import enumerate_mappings
from repro.core.simulation import resolve_traces, run_simulation
from repro.isa.opcodes import OP_INT
from repro.isa.registers import REG_NONE
from repro.runner.continuation import ContinuationJob, ContinuationRun
from repro.trace.profiling import clear_profile_cache, profile_benchmark
from repro.trace.stream import Trace, trace_for
from repro.workloads.definitions import get_workload

pytestmark = pytest.mark.usefixtures("clean_sim_state")

_4W6 = get_workload("4W6").benchmarks


def _memo_sizes():
    return len(stream._CACHE), len(warm._WARM_CACHE)


def _live_traces(match) -> int:
    """Trace objects alive after a full collection for which ``match``
    holds (``Trace`` has slots and no weakref slot, so tests find them
    among the collector's objects)."""
    gc.collect()
    return sum(1 for o in gc.get_objects() if isinstance(o, Trace) and match(o))


def test_memos_stay_bounded_across_commit_targets():
    """4W6 on M8 at 8,000, then two runs at each of ten further commit
    targets (each a new trace length): neither memo ever holds more than
    its bound, and the first target's traces are freed. Runs stop after
    a few cycles; the memos fill at trace resolution and warm-up."""
    stream.clear_trace_cache()
    warm.clear_warm_cache()
    run_simulation("M8", _4W6, (0, 0, 0, 0), 8_000, max_cycles=20)
    first = set(stream._CACHE)
    assert len(first) == len(_4W6)
    for target in range(9_000, 19_000, 1_000):
        for _ in range(2):
            run_simulation("M8", _4W6, (0, 0, 0, 0), target, max_cycles=20)
            traces, snapshots = _memo_sizes()
            assert traces <= stream._CACHE_MAX
            assert snapshots <= warm._WARM_CACHE_MAX
    assert _live_traces(lambda t: t.key in first) == 0


def test_profile_pass_leaves_no_trace_in_the_memo():
    clear_profile_cache()
    stream.clear_trace_cache()
    try:
        prof = profile_benchmark("mcf", 3_000)
        assert not stream._CACHE
        # The same profile as over the memoized trace.
        trace_for("mcf", 3_000)
        clear_profile_cache()
        assert profile_benchmark("mcf", 3_000) == prof
        assert list(stream._CACHE) == [("mcf", 3_000, 0)]
    finally:
        clear_profile_cache()


def test_bundle_runs_workload_by_workload_and_returns_run_order(monkeypatch):
    """A bundle whose runs interleave three workloads returns exactly
    what each run's SimJob returns, in run order, and executes each
    workload's runs back to back."""
    runs = []
    for target in (250, 300):
        for config in ("M8", "2M4+2M2"):
            for name in ("2W4", "4W6", "2W1"):
                benchmarks = get_workload(name).benchmarks
                mapping = enumerate_mappings(get_config(config), len(benchmarks))[-1]
                runs.append(ContinuationRun(config, benchmarks, mapping, target,
                                            trace_length=1_200))
    reference = [run.as_sim_job().execute() for run in runs]

    executed = []
    original = ContinuationRun.execute

    def spy(self, cache=None):
        executed.append(self.benchmarks)
        return original(self, cache)

    monkeypatch.setattr(ContinuationRun, "execute", spy)
    stream.clear_trace_cache()
    warm.clear_warm_cache()
    assert list(ContinuationJob(tuple(runs)).execute()) == reference
    # One contiguous block per workload, in order of first appearance.
    blocks = [b for i, b in enumerate(executed) if i == 0 or executed[i - 1] != b]
    assert blocks == [get_workload(n).benchmarks for n in ("2W4", "4W6", "2W1")]


def test_warm_memo_hit_on_a_reloaded_trace_restores_identical_state(monkeypatch):
    """The warm memo keys on content keys: after the trace memo evicted
    (and freed) a workload's traces, a run on the reloaded traces — new
    objects with the same keys — restores the snapshot from the memo,
    identical to the state the first run streamed."""
    stream.clear_trace_cache()
    warm.clear_warm_cache()
    cfg = get_config("M8")
    benchmarks = ("gzip", "twolf")
    traces = resolve_traces(benchmarks, 2_000)
    first = Processor(cfg, traces, (0, 0), 100)
    first.warm()
    reference = warm._dump_warm_state(first.mem, first.branch_unit)
    keys = [t.key for t in traces]
    del traces, first
    for i in range(stream._CACHE_MAX):
        trace_for("mcf", 600 + i)
    assert _live_traces(lambda t: t.key in keys) == 0  # evicted, not pinned

    def recompute(*args):  # pragma: no cover - only runs on a memo miss
        raise AssertionError("warm state recomputed instead of restored")

    monkeypatch.setattr(warm, "_stream_warm", recompute)
    again = resolve_traces(benchmarks, 2_000)
    assert [t.key for t in again] == keys
    second = Processor(cfg, again, (0, 0), 100)
    second.warm()
    assert warm._dump_warm_state(second.mem, second.branch_unit) == reference


def test_hand_built_traces_stay_pinned_by_their_warm_entry(hand_trace, monkeypatch):
    """Traces without a content key key the warm memo by ``id()``, so
    their entry keeps them alive (no recycled id can hit) and a second
    processor on the same objects restores the snapshot."""
    warm.clear_warm_cache()
    entries = [(OP_INT, 1, REG_NONE, REG_NONE, 0, 0, 0x40_0000 + 4 * i)
               for i in range(400)]
    trace = hand_trace(entries, name="pinned-probe")
    Processor(get_config("M8"), [trace], (0,), 50).warm()
    monkeypatch.setattr(warm, "_stream_warm", None)  # a miss would fail
    Processor(get_config("M8"), [trace], (0,), 50).warm()
    del trace

    def probe(t):
        return t.name == "pinned-probe"

    assert _live_traces(probe) == 1
    warm.clear_warm_cache()
    assert _live_traces(probe) == 0
