"""repro — a reproduction of *A Complexity-Effective Simultaneous
Multithreading Architecture* (Acosta, Falcon, Ramirez, Valero; ICPP 2005).

The package implements the paper's hdSMT architecture end to end: a
trace-driven, cycle-level multipipeline SMT simulator (SMTSIM-style) with
perceptron branch prediction, a two-level memory hierarchy, the
ICOUNT/FLUSH/L1MCOUNT fetch policies, the profile-based thread-to-pipeline
mapping heuristic with oracle BEST/WORST brackets, the Karlsruhe-style
area cost model, and synthetic SPECint2000 workloads.

Quick start::

    from repro import run_workload, config_area

    result = run_workload("2M4+2M2", ["eon", "gcc"], commit_target=10_000)
    print(result.ipc, result.ipc / config_area("2M4+2M2"))

See ``examples/`` for full scenarios and ``benchmarks/`` for the
regeneration of every table and figure in the paper.
"""

from repro.core import (
    M2,
    M4,
    M6,
    M8,
    BaselineParams,
    DynamicMappingResult,
    MicroarchConfig,
    PipelineModel,
    Processor,
    SimResult,
    STANDARD_CONFIG_NAMES,
    STANDARD_CONFIGS,
    get_config,
    get_model,
    heuristic_mapping,
    enumerate_mappings,
    parse_config_name,
    run_dynamic,
    run_simulation,
    run_workload,
)
from repro.area import AreaModel, config_area, pipeline_model_area, stage_breakdown
from repro.trace import (
    BENCHMARKS,
    BENCHMARK_NAMES,
    BenchmarkProfile,
    Trace,
    get_benchmark,
    profile_benchmark,
    trace_for,
)
from repro.workloads import WORKLOADS, WORKLOAD_NAMES, Workload, get_workload
from repro.metrics import harmonic_mean, performance_per_area

__version__ = "1.0.0"

__all__ = [
    "M2",
    "M4",
    "M6",
    "M8",
    "BaselineParams",
    "MicroarchConfig",
    "PipelineModel",
    "Processor",
    "SimResult",
    "STANDARD_CONFIG_NAMES",
    "STANDARD_CONFIGS",
    "get_config",
    "get_model",
    "heuristic_mapping",
    "enumerate_mappings",
    "parse_config_name",
    "run_simulation",
    "run_workload",
    "run_dynamic",
    "DynamicMappingResult",
    "AreaModel",
    "config_area",
    "pipeline_model_area",
    "stage_breakdown",
    "BENCHMARKS",
    "BENCHMARK_NAMES",
    "BenchmarkProfile",
    "Trace",
    "get_benchmark",
    "profile_benchmark",
    "trace_for",
    "WORKLOADS",
    "WORKLOAD_NAMES",
    "Workload",
    "get_workload",
    "harmonic_mean",
    "performance_per_area",
    "__version__",
]
