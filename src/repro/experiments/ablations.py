"""Ablation studies (ours; motivated by DESIGN.md's design-choice list).

A1 — fetch policy: the paper asserts L1MCOUNT for multipipeline configs
     and FLUSH for the baseline; this ablation swaps policies to measure
     how much each choice matters.
A2 — register latency: hdSMT pays a 2-cycle register file; sweep 1..3 to
     price that tax.
A3 — fetch-buffer size: the decoupling buffers are 32/16 entries; sweep
     them to check the decoupling claim.
A4 — mapping policy: heuristic vs random vs round-robin vs oracle.

Every ablation's variant runs are independent simulations, so each
driver batches them through a :class:`~repro.runner.batch.BatchRunner`
(``workers=`` or ``REPRO_WORKERS`` parallelizes; results are identical
to the sequential path). Runs ship as worker-count-sized bundles
(:func:`~repro.runner.continuation.run_bundled`) — including the A4
oracle's exact per-candidate screens — so dispatch overhead never
scales with the variant or candidate count; results come back in run
order, preserving the seed path's first-strict-max tie-breaks.
"""

from __future__ import annotations

import logging
from contextlib import contextmanager
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import MicroarchConfig, get_config
from repro.core.mapping import (
    enumerate_mappings,
    heuristic_mapping,
    random_mapping,
    round_robin_mapping,
)
from repro.core.simulation import SimResult
from repro.experiments.scale import ExperimentScale, default_scale
from repro.metrics.tables import format_table
from repro.runner import BatchRunner
from repro.runner.continuation import run_bundled
from repro.runner.jobs import SimJob
from repro.runner.screening import ScreenJob
from repro.trace.profiling import profile_benchmark
from repro.workloads.definitions import get_workload

__all__ = [
    "ablation_fetch_policy",
    "ablation_register_latency",
    "ablation_fetch_buffer",
    "ablation_mapping_policy",
]

logger = logging.getLogger(__name__)


@contextmanager
def _runner_for(runner: Optional[BatchRunner], workers: Optional[int]):
    """Yield the given runner, or a temporary one closed on exit.

    ``workers=None`` defers to the BatchRunner default (``REPRO_WORKERS``,
    then the cpu count), matching the module docstring's promise. When a
    temporary runner's supervised dispatch had to recover from faults
    (retries, pool respawns, corrupt cache entries, ...), the runner's
    :class:`~repro.runner.resilience.RunReport` is logged before closing
    — a caller-provided runner keeps its own cumulative report instead.
    """
    if runner is not None:
        yield runner
        return
    own = BatchRunner(workers=workers)
    try:
        yield own
    finally:
        if own.report.eventful:
            logger.info("ablation batch: %s", own.report.describe())
        own.close()


def _heur_map(config: MicroarchConfig, benchmarks: Sequence[str]) -> Tuple[int, ...]:
    if config.is_monolithic:
        return (0,) * len(benchmarks)
    misses = [profile_benchmark(b).misses_per_kilo_instruction for b in benchmarks]
    return heuristic_mapping(config, misses)


def ablation_fetch_policy(
    config_name: str = "2M4+2M2",
    workload_name: str = "4W6",
    policies: Sequence[str] = ("l1mcount", "icount", "flush", "roundrobin"),
    scale: Optional[ExperimentScale] = None,
    workers: Optional[int] = None,
    runner: Optional[BatchRunner] = None,
) -> Dict[str, SimResult]:
    """A1: same configuration/mapping, different fetch policies."""
    scale = scale or default_scale()
    base = get_config(config_name)
    w = get_workload(workload_name)
    mapping = _heur_map(base, w.benchmarks)
    variants = [
        replace(base, name=f"{config_name}[{pol}]", fetch_policy=pol)
        for pol in policies
    ]
    with _runner_for(runner, workers) as rn:
        results = run_bundled(
            rn,
            [
                SimJob(cfg, w.benchmarks, mapping, scale.commit_target)
                for cfg in variants
            ],
        )
    return dict(zip(policies, results))


def ablation_register_latency(
    config_name: str = "2M4+2M2",
    workload_name: str = "4W8",
    latencies: Sequence[int] = (1, 2, 3),
    scale: Optional[ExperimentScale] = None,
    workers: Optional[int] = None,
    runner: Optional[BatchRunner] = None,
) -> Dict[int, SimResult]:
    """A2: price of the multipipeline register-file tax."""
    scale = scale or default_scale()
    base = get_config(config_name)
    w = get_workload(workload_name)
    mapping = _heur_map(base, w.benchmarks)
    variants = [
        replace(
            base,
            name=f"{config_name}[rf={lat}]",
            params=replace(base.params, reg_latency=lat),
        )
        for lat in latencies
    ]
    with _runner_for(runner, workers) as rn:
        results = run_bundled(
            rn,
            [
                SimJob(cfg, w.benchmarks, mapping, scale.commit_target)
                for cfg in variants
            ],
        )
    return dict(zip(latencies, results))


def ablation_fetch_buffer(
    config_name: str = "2M4+2M2",
    workload_name: str = "4W1",
    sizes: Sequence[int] = (4, 8, 16, 32, 64),
    scale: Optional[ExperimentScale] = None,
    workers: Optional[int] = None,
    runner: Optional[BatchRunner] = None,
) -> Dict[int, SimResult]:
    """A3: decoupling-buffer size sweep (all pipelines get `size`)."""
    scale = scale or default_scale()
    base = get_config(config_name)
    w = get_workload(workload_name)
    mapping = _heur_map(base, w.benchmarks)
    variants = []
    for size in sizes:
        pipes = tuple(replace(p, fetch_buffer=size) for p in base.pipelines)
        variants.append(
            replace(base, name=f"{config_name}[buf={size}]", pipelines=pipes)
        )
    with _runner_for(runner, workers) as rn:
        results = run_bundled(
            rn,
            [
                SimJob(cfg, w.benchmarks, mapping, scale.commit_target)
                for cfg in variants
            ],
        )
    return dict(zip(sizes, results))


def ablation_mapping_policy(
    config_name: str = "2M4+2M2",
    workload_name: str = "4W6",
    scale: Optional[ExperimentScale] = None,
    workers: Optional[int] = None,
    runner: Optional[BatchRunner] = None,
    screening: bool = False,
) -> Dict[str, SimResult]:
    """A4: heuristic vs blind policies vs the (screened) oracle.

    ``screening=True`` prunes the oracle candidates with successive
    halving (same machinery as the performance sweep's ``--screening``);
    the default screens every candidate at the full screen window.
    """
    scale = scale or default_scale()
    config = get_config(config_name)
    w = get_workload(workload_name)
    n = w.num_threads
    heur = _heur_map(config, w.benchmarks)
    maps: Dict[str, Tuple[int, ...]] = {
        "heuristic": heur,
        "random": random_mapping(config, n),
        "roundrobin": round_robin_mapping(config, n),
    }
    # Screened oracle.
    candidates = enumerate_mappings(
        config, n, max_mappings=scale.max_mappings, must_include=[heur]
    )
    with _runner_for(runner, workers) as rn:
        if screening:
            # Successive halving: one checkpointed ladder in one worker.
            outcome = rn.run(
                [
                    ScreenJob(
                        config_name,
                        tuple(w.benchmarks),
                        tuple(candidates),
                        scale.screen_target,
                        rounds=4,
                    )
                ]
            )[0]
            maps["oracle-best"] = outcome.best()
            maps["oracle-worst"] = outcome.worst()
        else:
            # Exact screen: every candidate at the full screen window,
            # packed into worker-count-sized bundles (results come back
            # in candidate order, so the seed path's first-strict-max
            # tie-breaks are preserved exactly).
            screens = run_bundled(
                rn,
                [
                    SimJob(config_name, tuple(w.benchmarks), m,
                           scale.screen_target)
                    for m in candidates
                ],
            )
            best_map, best_ipc = heur, -1.0
            worst_map, worst_ipc = heur, float("inf")
            for m, r in zip(candidates, screens):
                if r.ipc > best_ipc:
                    best_map, best_ipc = m, r.ipc
                if r.ipc < worst_ipc:
                    worst_map, worst_ipc = m, r.ipc
            maps["oracle-best"] = best_map
            maps["oracle-worst"] = worst_map
        unique_maps = list(dict.fromkeys(maps.values()))
        full = dict(
            zip(
                unique_maps,
                run_bundled(
                    rn,
                    [
                        SimJob(config_name, tuple(w.benchmarks), m,
                               scale.commit_target)
                        for m in unique_maps
                    ],
                ),
            )
        )
    out: Dict[str, SimResult] = {name: full[m] for name, m in maps.items()}
    # The screening window can disagree with the full window at the
    # margin; an oracle is by definition at least as good as any policy
    # it brackets, so restore the bracket over the measured full runs.
    out["oracle-best"] = max(out.values(), key=lambda r: r.ipc)
    out["oracle-worst"] = min(out.values(), key=lambda r: r.ipc)
    return out


def ablation_report(results: Dict, label: str) -> str:
    """Generic 'variant vs IPC' table for any of the ablations."""
    rows: List[List[object]] = []
    for k, r in results.items():
        rows.append([str(k), f"{r.ipc:.3f}", r.cycles])
    return format_table([label, "IPC", "cycles"], rows, title=f"Ablation: {label}")
