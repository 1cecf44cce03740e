"""The hdSMT core: pipeline models, microarchitectures, fetch policies,
thread-to-pipeline mapping, and the cycle-level multipipeline simulator.

This package is the paper's primary contribution. A processor is a set of
*pipelines* (clusters) sharing a fetch engine, the memory hierarchy and
the physical register file; each pipeline owns its decode/rename, its
IQ/FQ/LQ instruction queues and its functional units. Entire threads are
assigned to pipelines by a mapping policy.
"""

from repro.core.models import PipelineModel, M8, M6, M4, M2, MODELS_BY_NAME, get_model
from repro.core.config import (
    MicroarchConfig,
    BaselineParams,
    STANDARD_CONFIGS,
    STANDARD_CONFIG_NAMES,
    get_config,
    parse_config_name,
)
from repro.core.mapping import (
    Mapping,
    heuristic_mapping,
    enumerate_mappings,
    mapping_contexts_ok,
    canonical_mapping,
)
from repro.core.engine import Processor
from repro.core.dynamic import DynamicMappingResult, run_dynamic, remap_threads
from repro.core.simulation import SimResult, run_simulation, run_workload

__all__ = [
    "PipelineModel",
    "M8",
    "M6",
    "M4",
    "M2",
    "MODELS_BY_NAME",
    "get_model",
    "MicroarchConfig",
    "BaselineParams",
    "STANDARD_CONFIGS",
    "STANDARD_CONFIG_NAMES",
    "get_config",
    "parse_config_name",
    "Mapping",
    "heuristic_mapping",
    "enumerate_mappings",
    "mapping_contexts_ok",
    "canonical_mapping",
    "Processor",
    "DynamicMappingResult",
    "run_dynamic",
    "remap_threads",
    "SimResult",
    "run_simulation",
    "run_workload",
]
