"""Synthetic SPECint2000 trace substrate.

The paper drives its simulator with Alpha traces of the 12 SPECint2000
benchmarks (300M-instruction SimPoint segments, ref inputs). Those traces
are not redistributable, so this package builds the closest synthetic
equivalent (see DESIGN.md §5): each benchmark gets a *statistical profile*
(instruction mix, dependency-distance distribution, static branch
population, working-set/locality model, code footprint) and a seeded
generator that walks a synthetic control-flow graph emitting a dynamic
instruction trace. The profiles preserve the property the paper's
evaluation actually depends on: the relative ordering of benchmarks by
memory-boundedness and ILP (the basis of the ILP/MEM/MIX workload classes
and of the heuristic mapping policy).
"""

from repro.trace.benchmarks import (
    BenchmarkProfile,
    BENCHMARKS,
    BENCHMARK_NAMES,
    ILP_BENCHMARKS,
    MEM_BENCHMARKS,
    get_benchmark,
)
from repro.trace.synthetic import StaticProgram, TraceGenerator
from repro.trace.packed import (
    PACK_FORMAT_VERSION,
    PackedTrace,
    PackedTraceStore,
    WarmSequences,
)
from repro.trace.stream import (
    FETCH_BLOCK,
    FETCH_MASK,
    FETCH_SHIFT,
    Trace,
    trace_for,
    clear_trace_cache,
    set_trace_store,
    active_trace_store,
)
from repro.trace.profiling import DCacheProfile, profile_benchmark
from repro.trace.composite import composite_trace

__all__ = [
    "BenchmarkProfile",
    "BENCHMARKS",
    "BENCHMARK_NAMES",
    "ILP_BENCHMARKS",
    "MEM_BENCHMARKS",
    "get_benchmark",
    "StaticProgram",
    "TraceGenerator",
    "PACK_FORMAT_VERSION",
    "PackedTrace",
    "PackedTraceStore",
    "WarmSequences",
    "FETCH_BLOCK",
    "FETCH_MASK",
    "FETCH_SHIFT",
    "Trace",
    "trace_for",
    "clear_trace_cache",
    "set_trace_store",
    "active_trace_store",
    "DCacheProfile",
    "composite_trace",
    "profile_benchmark",
]
