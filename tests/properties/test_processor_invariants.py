"""Property-based tests: end-of-run processor invariants.

Random workloads at random (valid) mappings are simulated briefly; the
machine must end every run with conserved resources and coherent ROB
accounting — the invariants that catch squash/rename bookkeeping bugs.
"""

from hypothesis import given, settings, strategies as st

from repro.core.config import STANDARD_CONFIG_NAMES, get_config
from repro.core.mapping import enumerate_mappings
from repro.core.engine import Processor, S_FREE
from repro.trace.benchmarks import BENCHMARK_NAMES
from repro.trace.stream import trace_for


@st.composite
def scenario(draw):
    cfg_name = draw(st.sampled_from(STANDARD_CONFIG_NAMES))
    cfg = get_config(cfg_name)
    n = draw(st.integers(min_value=1, max_value=min(4, cfg.total_contexts)))
    benches = tuple(draw(st.sampled_from(BENCHMARK_NAMES)) for _ in range(n))
    options = enumerate_mappings(cfg, n, max_mappings=6, seed=draw(st.integers(0, 3)))
    mapping = draw(st.sampled_from(options))
    return cfg, benches, mapping


def _check_invariants(proc: Processor, rob_view):
    # 1. Physical register conservation.
    held = 0
    state, entry = rob_view(proc, "state"), rob_view(proc, "entry")
    for t in range(proc.num_threads):
        i = proc.rob_head[t]
        for _ in range(proc.rob_count[t]):
            if state[t][i] != S_FREE and entry[t][i][1] >= 0:
                held += 1
            i = (i + 1) % proc.rob_entries
    assert proc.phys_free + held == proc.params.rename_registers

    # 2. ROB ring consistency: count matches head/tail distance.
    for t in range(proc.num_threads):
        dist = (proc.rob_tail[t] - proc.rob_head[t]) % proc.rob_entries
        if proc.rob_count[t] == proc.rob_entries:
            assert dist == 0
        else:
            assert dist == proc.rob_count[t]

    # 3. Queue occupancy within capacity and non-negative.
    for pl in proc.pipelines:
        for fu in range(3):
            assert 0 <= pl.iq_used[fu] <= pl.iq_cap[fu]
        assert len(pl.buffer) <= pl.buffer_cap

    # 4. icount and inflight loads non-negative.
    for t in range(proc.num_threads):
        assert proc.icount[t] >= 0
        assert proc.inflight_loads[t] >= 0

    # 5. Committed never exceeds fetched.
    for t in range(proc.num_threads):
        assert proc.committed[t] <= proc.stat_fetched[t]


@given(scenario(), st.integers(min_value=200, max_value=900))
@settings(max_examples=25, deadline=None)
def test_invariants_hold_after_random_runs(rob_view, scn, target):
    cfg, benches, mapping = scn
    traces = []
    seen = {}
    for b in benches:
        inst = seen.get(b, 0)
        seen[b] = inst + 1
        traces.append(trace_for(b, 2000, instance=inst))
    proc = Processor(cfg, traces, mapping, commit_target=target)
    proc.warm()
    proc.run()
    assert proc.finished, "runs at this scale must terminate"
    _check_invariants(proc, rob_view)


@given(scenario())
@settings(max_examples=10, deadline=None)
def test_invariants_hold_mid_run(rob_view, scn):
    """Invariants are not just terminal: check at several cut points."""
    cfg, benches, mapping = scn
    traces = [trace_for(b, 1500, instance=i) for i, b in enumerate(benches)]
    proc = Processor(cfg, traces, mapping, commit_target=10**9)
    proc.warm()
    for _ in range(5):
        for _ in range(150):
            proc.step()
        _check_invariants(proc, rob_view)


@given(st.sampled_from(BENCHMARK_NAMES), st.integers(min_value=1, max_value=3))
@settings(max_examples=10, deadline=None)
def test_determinism(bench, nthreads):
    """Identical inputs give identical cycle counts and commits."""
    cfg = get_config("M8")
    traces = [trace_for(bench, 1500, instance=i) for i in range(nthreads)]
    runs = []
    for _ in range(2):
        proc = Processor(cfg, traces, (0,) * nthreads, commit_target=500)
        proc.warm()
        proc.run()
        runs.append((proc.cycle, tuple(proc.committed)))
    assert runs[0] == runs[1]
