"""Shared fixtures for the test suite.

Tests run at small, fixed scales for speed and determinism; the full
paper-scale sweeps live in ``benchmarks/``.
"""

import os
from pathlib import Path

import pytest

# pyproject's `pythonpath = ["src"]` covers in-process imports but is not
# exported to subprocesses; the integration tests spawn example scripts
# and BatchRunner workers, so make the src layout visible to children
# even when the suite is invoked as a bare `pytest`.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
if _SRC not in os.environ.get("PYTHONPATH", "").split(os.pathsep):
    os.environ["PYTHONPATH"] = (
        _SRC + os.pathsep + os.environ["PYTHONPATH"]
        if os.environ.get("PYTHONPATH")
        else _SRC
    )

from repro.experiments.scale import ExperimentScale  # noqa: E402
from repro.isa.opcodes import OP_INT  # noqa: E402
from repro.isa.registers import REG_NONE  # noqa: E402


@pytest.fixture
def tiny_scale() -> ExperimentScale:
    """Smallest useful experiment scale (fast unit/integration tests)."""
    return ExperimentScale(commit_target=800, screen_target=300, max_mappings=8)


@pytest.fixture
def small_scale() -> ExperimentScale:
    """Slightly larger scale for shape-sensitive integration tests."""
    return ExperimentScale(commit_target=2500, screen_target=700, max_mappings=12)


# -- shared simulation fixtures ---------------------------------------------
#
# The trace/core/runner suites all need the same three things: tiny traces
# (hand-built or generated), a temporary packed-trace store, and a
# guarantee that process-wide simulation state (store activations, trace /
# warm-snapshot memo caches) never leaks between tests. They live here so
# each suite stops re-declaring its own copies.

#: Wrong-path junk pool for hand-built traces (the shape every core test
#: used: 64 independent INT ops walking a 64-instruction code footprint).
_HAND_JUNK = [
    (OP_INT, 1 + (i % 8), REG_NONE, REG_NONE, 0, 0, 0x70_0000 + 4 * (i % 64))
    for i in range(64)
]


@pytest.fixture(scope="session")
def hand_trace():
    """Factory for tiny hand-built traces: ``make(entries)`` wraps an
    explicit entry list (with the standard junk pool) into a Trace, so a
    test can drive one modeled mechanism in isolation."""
    from repro.trace.benchmarks import get_benchmark
    from repro.trace.stream import Trace

    profile = get_benchmark("gzip")

    def make(entries, junk=None, name="hand"):
        return Trace(name, profile, entries,
                     list(_HAND_JUNK) if junk is None else junk)

    return make


@pytest.fixture(scope="session")
def generated_stream():
    """``make(name, length, instance=0)``: the ``(entries, junk)`` tuple
    lists :class:`~repro.trace.synthetic.TraceGenerator` itself emits
    for the window ``trace_for(name, length, instance)`` holds — the
    reference a Trace's packed columns must decode back to."""
    from repro.trace.benchmarks import get_benchmark
    from repro.trace.stream import _JUNK_LEN
    from repro.trace.synthetic import StaticProgram, TraceGenerator

    def make(name, length, instance=0):
        gen = TraceGenerator(StaticProgram(get_benchmark(name), seed=0),
                             seed=instance)
        return gen.generate(length), gen.generate_junk(_JUNK_LEN)

    return make


@pytest.fixture(scope="session")
def tiny_traces():
    """Factory for small *generated* traces: ``make(("gzip", "mcf"))``
    returns one memoized synthetic trace per benchmark name."""
    from repro.trace.stream import trace_for

    def make(benchmarks=("gzip", "twolf"), length=600):
        return [trace_for(b, length) for b in benchmarks]

    return make


@pytest.fixture
def clean_sim_state():
    """Deactivate the packed-trace / warm-snapshot stores and drop the
    process memo caches once the test finishes. Modules whose tests
    toggle stores apply it wholesale via
    ``pytestmark = pytest.mark.usefixtures("clean_sim_state")``."""
    yield
    from repro.core.engine import clear_warm_cache, set_warm_store
    from repro.trace.stream import clear_trace_cache, set_trace_store

    set_trace_store(None)
    set_warm_store(None)
    clear_trace_cache()
    clear_warm_cache()


@pytest.fixture
def trace_store(tmp_path, clean_sim_state):
    """A tmp-dir PackedTraceStore, activated process-wide for the test
    (deactivated and de-memoized again by ``clean_sim_state``)."""
    from repro.trace.stream import set_trace_store

    return set_trace_store(tmp_path / "trace-store")


@pytest.fixture(scope="session")
def rob_view():
    """``view(proc, "state")``: per-thread copies of one of the
    processor's flat ROB arrays (``proc._rob_state`` here; slot
    ``t * rob_entries + i``), for tests that walk a thread's ROB ring."""

    def view(proc, name):
        flat = getattr(proc, "_rob_" + name)
        r = proc.rob_entries
        return [flat[t * r:(t + 1) * r] for t in range(proc.num_threads)]

    return view
