"""High-level simulation entry points.

``run_simulation`` assembles traces + processor for one (configuration,
workload, mapping) triple, warms the structures, runs to the commit
target and returns a :class:`SimResult`. The experiment drivers in
:mod:`repro.experiments` build the paper's figures out of these calls.

Traces flow through here as *column views*: ``resolve_traces`` hands the
processor :class:`~repro.trace.stream.Trace` objects whose fetch path is
served by lazily-decoded blocks over the packed int64 columns
(:meth:`~repro.trace.stream.Trace.fetch_view`) — for store-served
(mmap-backed) traces the full tuple lists never materialize, so a
BatchRunner worker pays page-cache reads, not per-trace decode, and a
short screening run decodes only the prefix it actually fetches. The
warm pass consumes the same columns through
:meth:`~repro.trace.stream.Trace.warm_sequences`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import MicroarchConfig, get_config
from repro.core.engine import Processor
from repro.trace.stream import Trace, trace_for

__all__ = [
    "SimResult",
    "run_simulation",
    "run_workload",
    "default_trace_length",
    "resolve_traces",
    "resolve_trace_triples",
    "collect_result",
]


def default_trace_length(commit_target: int) -> int:
    """Trace window sized to the commit target (wrapping covers overrun)."""
    return max(4096, commit_target)


def resolve_trace_triples(
    benchmarks: Sequence[str], trace_length: int, seed: int = 0
) -> List[Tuple[str, int, int]]:
    """The ``(benchmark, length, instance)`` identities a workload
    streams, in thread order — the single source of truth for the
    instance namespace (repeated benchmarks get distinct instances; the
    seed shifts the whole workload into a disjoint namespace). Shared by
    :func:`resolve_traces` and the runner jobs' pre-pack bookkeeping so
    the runner packs exactly the traces workers will look up.
    """
    seen: Dict[str, int] = {}
    triples: List[Tuple[str, int, int]] = []
    for name in benchmarks:
        inst = seen.get(name, 0)
        seen[name] = inst + 1
        triples.append((name, trace_length, inst + (seed << 16)))
    return triples


def resolve_traces(
    benchmarks: Sequence[str], trace_length: int, seed: int = 0
) -> List[Trace]:
    """The trace set a workload streams, in thread order (see
    :func:`resolve_trace_triples`). Shared by :func:`run_simulation` and
    the screening jobs so every consumer of a workload sees exactly the
    same streams."""
    return [
        trace_for(name, length, instance=inst)
        for name, length, inst in resolve_trace_triples(
            benchmarks, trace_length, seed
        )
    ]


@dataclass(frozen=True)
class SimResult:
    """Outcome of one simulation run."""

    config_name: str
    benchmarks: Tuple[str, ...]
    mapping: Tuple[int, ...]
    cycles: int
    committed: Tuple[int, ...]
    commit_target: int
    ipc: float  #: aggregate committed instructions / cycle
    thread_ipc: Tuple[float, ...]
    stats: Dict[str, float] = field(default_factory=dict)

    @property
    def num_threads(self) -> int:
        return len(self.benchmarks)

    def describe(self) -> str:
        per = ", ".join(
            f"{b}={i:.3f}" for b, i in zip(self.benchmarks, self.thread_ipc)
        )
        return (
            f"{self.config_name} {list(self.mapping)} "
            f"IPC={self.ipc:.3f} ({per}) cycles={self.cycles}"
        )


def run_simulation(
    config: MicroarchConfig | str,
    benchmarks: Sequence[str],
    mapping: Sequence[int],
    commit_target: int = 10_000,
    trace_length: Optional[int] = None,
    warmup: bool = True,
    max_cycles: Optional[int] = None,
    seed: int = 0,
) -> SimResult:
    """Simulate one workload on one configuration under one mapping.

    Parameters
    ----------
    config:
        A :class:`MicroarchConfig` or a standard configuration name.
    benchmarks:
        SPECint2000 benchmark names, one per thread (workload order).
    mapping:
        ``mapping[thread] = pipeline_index``.
    commit_target:
        Stop as soon as one thread commits this many instructions (the
        paper's stop rule, scaled down from 300M).
    trace_length:
        Generated window per thread; defaults to the commit target.
    warmup:
        Stream each trace through caches/TLBs/predictors before timing
        and reset the counters (steady-state measurement).
    seed:
        Namespaces the synthetic trace draw: the paper's fixed traces are
        seed 0; other seeds yield alternative stationary windows of the
        same benchmarks (for sensitivity studies).
    """
    if isinstance(config, str):
        config = get_config(config)
    if trace_length is None:
        trace_length = default_trace_length(commit_target)
    traces = resolve_traces(benchmarks, trace_length, seed)
    proc = Processor(config, traces, mapping, commit_target)
    if warmup:
        proc.warm()
        proc.mem.reset_stats()
        proc.branch_unit.reset_stats()
    proc.run(max_cycles=max_cycles)
    return collect_result(proc, config.name, benchmarks, mapping, commit_target)


def collect_result(
    proc: Processor,
    config_name: str,
    benchmarks: Sequence[str],
    mapping: Sequence[int],
    commit_target: int,
) -> SimResult:
    """Assemble the :class:`SimResult` for a finished processor (shared by
    :func:`run_simulation` and the screening jobs' folded full runs)."""
    n = proc.num_threads
    stats = {
        "l1d_miss_rate": proc.mem.l1d.stats.miss_rate,
        "l1i_miss_rate": proc.mem.l1i.stats.miss_rate,
        "l2_miss_rate": proc.mem.l2.stats.miss_rate,
        "dtlb_miss_rate": proc.mem.dtlb.miss_rate,
        "branch_mispredict_rate": proc.branch_unit.predictor.mispredict_rate,
        "mispredicts": float(sum(proc.stat_mispredicts)),
        "flushes": float(sum(proc.stat_flushes)),
        "squashed": float(sum(proc.stat_squashed)),
        "wrongpath_fetched": float(sum(proc.stat_wrongpath_fetched)),
        "fetched": float(sum(proc.stat_fetched)),
        "icache_stalls": float(proc.stat_icache_stalls),
        "btb_bubbles": float(proc.stat_btb_bubbles),
    }
    return SimResult(
        config_name=config_name,
        benchmarks=tuple(benchmarks),
        mapping=tuple(mapping),
        cycles=proc.cycle,
        committed=tuple(proc.committed),
        commit_target=commit_target,
        ipc=proc.aggregate_ipc(),
        thread_ipc=tuple(proc.thread_ipc(t) for t in range(n)),
        stats=stats,
    )


def run_workload(
    config: MicroarchConfig | str,
    benchmarks: Sequence[str],
    commit_target: int = 10_000,
    **kwargs,
) -> SimResult:
    """Run with the trivial mapping for monolithic configs, or the
    paper's heuristic mapping otherwise (convenience wrapper)."""
    from repro.core.mapping import heuristic_mapping
    from repro.trace.profiling import profile_benchmark

    if isinstance(config, str):
        config = get_config(config)
    if config.is_monolithic:
        mapping: Tuple[int, ...] = (0,) * len(benchmarks)
    else:
        misses = [
            profile_benchmark(b).misses_per_kilo_instruction for b in benchmarks
        ]
        mapping = heuristic_mapping(config, misses)
    return run_simulation(config, benchmarks, mapping, commit_target, **kwargs)
