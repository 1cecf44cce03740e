"""Microarchitecture configurations.

A :class:`MicroarchConfig` is a list of pipeline models plus the shared
baseline parameters of Table 1. The six configurations evaluated in the
paper (Fig. 3) are pre-registered:

* ``M8``              — the monolithic SMT baseline (FLUSH fetch policy,
  1-cycle register file);
* ``3M4``, ``4M4``    — homogeneously clustered;
* ``2M4+2M2``, ``3M4+2M2``, ``1M6+2M4+2M2`` — heterogeneous hdSMT.

All multipipeline configurations use the L1MCOUNT fetch policy and pay
the paper's multipipeline register-file tax (2-cycle register read/write
instead of 1).

A configuration describes only the modeled machine: every configuration,
monolithic or not, runs on the same engine stages.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import Dict, List, Tuple

from repro.core.models import PipelineModel, get_model
from repro.memory.hierarchy import MemoryParams

__all__ = [
    "BaselineParams",
    "MicroarchConfig",
    "STANDARD_CONFIGS",
    "STANDARD_CONFIG_NAMES",
    "config_key_text",
    "get_config",
    "parse_config_name",
]


@dataclass(frozen=True)
class BaselineParams:
    """Shared (non-pipeline) parameters: Table 1 plus modeling conventions
    (the paper's 8-stage front end is modelled by the two penalties)."""

    rob_entries: int = 256  #: per-thread reorder buffer (replicated)
    rename_registers: int = 256  #: shared physical rename registers
    fetch_width: int = 8  #: global instructions fetchable per cycle
    fetch_threads: int = 2  #: global threads fetchable per cycle
    reg_latency: int = 1  #: register read/write latency (2 in hdSMT)
    branch_redirect_penalty: int = 6  #: mispredict resolve -> refetch bubble
    btb_miss_penalty: int = 2  #: taken prediction without a target
    memory: MemoryParams = field(default_factory=MemoryParams)

    @property
    def extra_reg_cycles(self) -> int:
        """Extra cycles per register read and per write vs the 1-cycle
        baseline file (0 for monolithic, 1 for hdSMT configurations)."""
        return self.reg_latency - 1


@dataclass(frozen=True)
class MicroarchConfig:
    """One evaluated microarchitecture: pipelines + shared parameters."""

    name: str
    pipelines: Tuple[PipelineModel, ...]
    fetch_policy: str = "l1mcount"  #: 'icount' | 'flush' | 'l1mcount' | 'roundrobin'
    params: BaselineParams = field(default_factory=BaselineParams)
    #: The paper lets the M8 baseline run 6-thread workloads by assuming
    #: two extra contexts at zero area cost (§3). When true, the context
    #: limit stretches to the workload size for single-pipeline configs.
    allow_context_overcommit: bool = False

    def __post_init__(self) -> None:
        if not self.pipelines:
            raise ValueError("a microarchitecture needs at least one pipeline")
        if self.fetch_policy not in ("icount", "flush", "l1mcount", "roundrobin"):
            raise ValueError(f"unknown fetch policy {self.fetch_policy!r}")

    @property
    def is_monolithic(self) -> bool:
        return len(self.pipelines) == 1

    @property
    def total_contexts(self) -> int:
        return sum(p.contexts for p in self.pipelines)

    def contexts_for(self, num_threads: int) -> int:
        """Effective context capacity for a workload of ``num_threads``."""
        if self.allow_context_overcommit and self.is_monolithic:
            return max(self.total_contexts, num_threads)
        return self.total_contexts

    def pipeline_counts(self) -> Dict[str, int]:
        """Model-name -> count (e.g. {'M4': 2, 'M2': 2})."""
        counts: Dict[str, int] = {}
        for p in self.pipelines:
            counts[p.name] = counts.get(p.name, 0) + 1
        return counts

    def describe(self) -> str:
        """Compact human-readable summary."""
        parts = [f"{n}x{m}" for m, n in self.pipeline_counts().items()]
        return (
            f"{self.name}: {'+'.join(parts)}, fetch={self.fetch_policy}, "
            f"reg_latency={self.params.reg_latency}"
        )


#: Key text of deleted fields, by (class, the field it followed): it
#: keeps the bytes of every key that hashes :func:`config_key_text`.
RETIRED_KEY_TEXT: Dict[Tuple[type, str], str] = {
    (MemoryParams, "l1i_ways"): "l1i_banks=8",
    (MemoryParams, "l1d_ways"): "l1d_banks=8",
    (MemoryParams, "l2_ways"): "l2_banks=8",
    (BaselineParams, "btb_miss_penalty"): "pipeline_depth=8",
}


def config_key_text(config: str | MicroarchConfig | MemoryParams) -> str:
    """The text that identifies a configuration in result-cache keys,
    request keys and warm-snapshot names.

    A name comes back unchanged. An object (a config or a part of one) is
    spelled out as ``Class(field=value, ...)``, recursing into parts and
    tuples, leaf values by ``repr`` and each :data:`RETIRED_KEY_TEXT`
    entry after the field it followed. So a new field changes every
    object key, and a deleted one keeps its bytes through the table.
    """
    if isinstance(config, str):
        return config
    return _key_text(config)


def _key_text(value) -> str:
    if is_dataclass(value):
        parts = []
        for f in fields(value):
            parts.append(f"{f.name}={_key_text(getattr(value, f.name))}")
            retired = RETIRED_KEY_TEXT.get((type(value), f.name))
            if retired is not None:
                parts.append(retired)
        return f"{type(value).__qualname__}({', '.join(parts)})"
    if isinstance(value, tuple):
        items = [_key_text(v) for v in value]
        return f"({items[0]},)" if len(items) == 1 else f"({', '.join(items)})"
    return repr(value)


_NAME_TERM = re.compile(r"^(\d*)(M\d+)$")


def parse_config_name(name: str) -> Tuple[PipelineModel, ...]:
    """Parse '2M4+2M2'-style names into a pipeline-model tuple.

    A missing count means 1 ('M8' == '1M8'). Raises ValueError on
    malformed names and KeyError on unknown models.
    """
    pipelines: List[PipelineModel] = []
    for term in name.split("+"):
        m = _NAME_TERM.match(term.strip())
        if not m:
            raise ValueError(f"malformed configuration term {term!r} in {name!r}")
        count = int(m.group(1)) if m.group(1) else 1
        if count <= 0:
            raise ValueError(f"pipeline count must be positive in {term!r}")
        model = get_model(m.group(2))
        pipelines.extend([model] * count)
    # Stable presentation order: wider pipelines first (the mapping policy
    # sorts by width anyway; this makes pipeline indices deterministic).
    pipelines.sort(key=lambda p: (-p.width, p.name))
    return tuple(pipelines)


def _make_standard() -> Dict[str, MicroarchConfig]:
    hd_params = BaselineParams(reg_latency=2)  # multipipeline RF tax (§4)
    base_params = BaselineParams(reg_latency=1)
    configs = {
        "M8": MicroarchConfig(
            name="M8",
            pipelines=parse_config_name("M8"),
            fetch_policy="flush",
            params=base_params,
            allow_context_overcommit=True,
        )
    }
    for name in ("3M4", "4M4", "2M4+2M2", "3M4+2M2", "1M6+2M4+2M2"):
        configs[name] = MicroarchConfig(
            name=name,
            pipelines=parse_config_name(name),
            fetch_policy="l1mcount",
            params=hd_params,
        )
    return configs


STANDARD_CONFIGS: Dict[str, MicroarchConfig] = _make_standard()
STANDARD_CONFIG_NAMES: Tuple[str, ...] = tuple(STANDARD_CONFIGS)

#: The homogeneous-clustering subset (used in the paper's comparisons).
HOMOGENEOUS_CONFIG_NAMES: Tuple[str, ...] = ("3M4", "4M4")
#: The truly heterogeneous hdSMT subset.
HETEROGENEOUS_CONFIG_NAMES: Tuple[str, ...] = ("2M4+2M2", "3M4+2M2", "1M6+2M4+2M2")


def get_config(name: str) -> MicroarchConfig:
    """Fetch a standard configuration, or synthesize one from a '2M4+2M2'
    style name (synthesized configs get hdSMT defaults)."""
    cfg = STANDARD_CONFIGS.get(name)
    if cfg is not None:
        return cfg
    pipelines = parse_config_name(name)
    if len(pipelines) == 1 and pipelines[0].name == "M8":
        return replace(STANDARD_CONFIGS["M8"], name=name, pipelines=pipelines)
    return MicroarchConfig(
        name=name,
        pipelines=pipelines,
        fetch_policy="l1mcount",
        params=BaselineParams(reg_latency=2),
    )
