"""Generation straight into packed columns, and what it saves.

A generated trace is packed chunk by chunk as the walker emits it, and
the profile pass streams its window keeping only the loads' and
stores' op and address. These tests check that the chunked paths see
exactly the stream the list-returning walker emits, draw the RNG
exactly as it does, and stay within a fixed memory bound.
"""

import tracemalloc

import pytest

from repro.trace.benchmarks import BENCHMARK_NAMES, get_benchmark
from repro.trace.profiling import clear_profile_cache, profile_benchmark
from repro.trace.stream import (
    _JUNK_LEN,
    clear_trace_cache,
    trace_for,
    trace_generator,
    transient_trace,
)
from repro.trace.synthetic import SINK_CHUNK, StaticProgram, TraceGenerator

pytestmark = pytest.mark.usefixtures("clean_sim_state")

#: Below, at and just past one chunk, a few chunks, and the profile window.
LENGTHS = (1, 700, 1024, 1025, 4096, 20_000)


def _reference(name, length):
    """The list-returning walk and the junk pool drawn right after it."""
    gen = TraceGenerator(StaticProgram(get_benchmark(name), seed=0), seed=0)
    return gen.generate(length), gen.generate_junk(_JUNK_LEN)


@pytest.mark.parametrize("length", LENGTHS)
@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_packed_columns_equal_the_listed_walk(name, length):
    clear_trace_cache()
    entries, junk = _reference(name, length)
    packed = trace_for(name, length).packed
    assert list(zip(*packed.columns)) == entries
    assert list(zip(*packed.junk_columns)) == junk


@pytest.mark.parametrize("length", (0, 1, SINK_CHUNK, SINK_CHUNK + 1, 5000))
def test_sink_gets_block_aligned_chunks_of_the_same_walk(length):
    listing = trace_generator("vortex")
    listed = listing.generate(length)
    chunks = []
    streaming = trace_generator("vortex")
    assert streaming.generate(length, chunks.append) is None
    assert [e for chunk in chunks for e in chunk] == listed
    assert all(len(chunk) >= SINK_CHUNK for chunk in chunks[:-1])
    assert all(chunks)
    # Both walks leave the generator in the same state.
    assert streaming.generate(300) == listing.generate(300)


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_profile_pass_keeps_only_loads_and_stores():
    """The pass never holds its 20,000-entry window: it peaked at
    5.45 MB when it built the window as a trace, and the loads' and
    stores' op and address columns come to about 0.13 MB."""
    profile_benchmark("gzip", 500)  # imports and one-time tables
    clear_profile_cache()
    assert _traced_peak(lambda: profile_benchmark("mcf")) < 1.5e6


def test_trace_build_never_holds_the_window_as_tuples():
    """Building a 20,000-entry trace holds its seven int64 columns
    (1.12 MB) plus one chunk and the junk pool: it peaked at 5.66 MB
    when the whole window was first built as tuples."""
    transient_trace("gzip", 500)
    clear_trace_cache()
    assert _traced_peak(lambda: transient_trace("mcf", 20_000)) < 2.5e6
