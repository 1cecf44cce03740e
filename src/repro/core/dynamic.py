"""Dynamic thread-to-pipeline remapping — the paper's §7 future work.

The paper closes: "in future hdSMT implementations, this mapping should
probably be made dynamically in order to better adapt to the dynamic
changes in program behaviour during execution." This module implements
that implementation:

* the workload starts under a mapping chosen by any static policy;
* every ``epoch_cycles`` the runner re-ranks the threads by the data
  cache misses they incurred *during the last epoch* (the same sort key
  as the static heuristic, but measured online instead of profiled);
* if the heuristic would now map threads differently, the moving threads
  are *drained* (fetch gated until their ROBs empty — in-flight work is
  never thrown away), remapped, and released after a migration penalty
  (rename-map/ROB handoff).

Cost model: draining is fully simulated (the pipeline empties at its own
pace); the extra ``migration_penalty`` cycles cover the architectural
state handoff between pipelines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.config import MicroarchConfig, get_config
from repro.core.mapping import heuristic_mapping
from repro.core.engine import Processor
from repro.core.simulation import SimResult, default_trace_length, resolve_traces
from repro.trace.stream import Trace

__all__ = ["DynamicMappingResult", "run_dynamic", "remap_threads"]


@dataclass(frozen=True)
class DynamicMappingResult:
    """Outcome of a dynamically-remapped run."""

    result: SimResult
    epochs: int
    remaps: int  #: epochs in which at least one thread moved
    migrations: int  #: total thread moves
    mapping_history: Tuple[Tuple[int, ...], ...]


def remap_threads(proc: Processor, new_mapping: Sequence[int]) -> int:
    """Move drained threads to their new pipelines; returns moves made.

    Preconditions: every moving thread's ROB must be empty and its fetch
    buffer purged (the runner drains them first). Raises if violated.
    """
    moves = 0
    for t, new_p in enumerate(new_mapping):
        old_p = proc.pipe_of[t]
        if new_p == old_p:
            continue
        if proc.rob_count[t] != 0:
            raise RuntimeError(f"thread {t} not drained (ROB {proc.rob_count[t]})")
        if any(item[0] == t for item in proc.pipelines[old_p].buffer):
            raise RuntimeError(f"thread {t} still queued in pipeline {old_p}")
        proc.pipelines[old_p].threads.remove(t)
        proc.pipelines[new_p].threads.append(t)
        proc.pipe_of[t] = new_p
        proc._pipe_by_thread[t] = proc.pipelines[new_p]
        proc._free_epoch += 1  # pipeline membership changed: unblock rename
        moves += 1
    if moves:
        proc.active_pipes = [pl for pl in proc.pipelines if pl.threads]
    return moves


def run_dynamic(
    config: MicroarchConfig | str,
    benchmarks: Sequence[str],
    initial_mapping: Optional[Sequence[int]] = None,
    commit_target: int = 10_000,
    epoch_cycles: int = 2_000,
    migration_penalty: int = 100,
    trace_length: Optional[int] = None,
    traces: Optional[Sequence[Trace]] = None,
    warmup: bool = True,
    max_cycles: Optional[int] = None,
) -> DynamicMappingResult:
    """Simulate with online heuristic remapping every ``epoch_cycles``.

    ``traces`` overrides the default benchmark traces (used with
    :func:`repro.trace.composite.composite_trace` to exercise behaviour
    changes).
    """
    if isinstance(config, str):
        config = get_config(config)
    if config.is_monolithic:
        raise ValueError("dynamic remapping needs a multipipeline configuration")
    n = len(benchmarks)
    if trace_length is None:
        trace_length = default_trace_length(commit_target)
    if traces is None:
        traces = resolve_traces(benchmarks, trace_length)
    if initial_mapping is None:
        # Cold start: no profile yet — ties, so workload order decides.
        initial_mapping = heuristic_mapping(config, [0.0] * n)

    proc = Processor(config, traces, initial_mapping, commit_target)
    if warmup:
        proc.warm()
        proc.mem.reset_stats()
        proc.branch_unit.reset_stats()
    if max_cycles is None:
        max_cycles = 400 * commit_target + 10_000

    history: List[Tuple[int, ...]] = [tuple(initial_mapping)]
    epochs = remaps = migrations = 0
    last_misses = list(proc.mem.l1d.stats.per_thread_misses)
    far = 1 << 60

    while not proc.finished and proc.cycle < max_cycles:
        # -- run one epoch -------------------------------------------------
        epoch_end = proc.cycle + epoch_cycles
        while not proc.finished and proc.cycle < min(epoch_end, max_cycles):
            proc.step()
        if proc.finished or proc.cycle >= max_cycles:
            break
        epochs += 1
        # -- re-rank by the epoch's observed misses -------------------------
        misses_now = proc.mem.l1d.stats.per_thread_misses
        epoch_misses = [misses_now[t] - last_misses[t] for t in range(n)]
        last_misses = list(misses_now)
        desired = heuristic_mapping(config, epoch_misses)
        if desired == tuple(proc.pipe_of):
            continue
        # -- drain the moving threads ---------------------------------------
        movers = [t for t in range(n) if desired[t] != proc.pipe_of[t]]
        saved_stall = [proc.fetch_stall_until[t] for t in movers]
        for t in movers:
            proc.fetch_stall_until[t] = far
        drain_deadline = proc.cycle + 50_000
        while (
            not proc.finished
            and proc.cycle < min(drain_deadline, max_cycles)
            and any(
                proc.rob_count[t] != 0
                or any(it[0] == t for it in proc.pipelines[proc.pipe_of[t]].buffer)
                for t in movers
            )
        ):
            proc.step()
        if proc.finished or proc.cycle >= max_cycles:
            break
        moved = remap_threads(proc, desired)
        migrations += moved
        remaps += 1
        history.append(tuple(desired))
        release = proc.cycle + migration_penalty
        for t, old in zip(movers, saved_stall):
            proc.fetch_stall_until[t] = max(release, min(old, proc.cycle))

    stats = {
        "l1d_miss_rate": proc.mem.l1d.stats.miss_rate,
        "branch_mispredict_rate": proc.branch_unit.predictor.mispredict_rate,
        "mispredicts": float(sum(proc.stat_mispredicts)),
        "flushes": float(sum(proc.stat_flushes)),
        "epochs": float(epochs),
        "migrations": float(migrations),
    }
    result = SimResult(
        config_name=config.name,
        benchmarks=tuple(t.name for t in traces),
        mapping=tuple(proc.pipe_of),
        cycles=proc.cycle,
        committed=tuple(proc.committed),
        commit_target=commit_target,
        ipc=proc.aggregate_ipc(),
        thread_ipc=tuple(proc.thread_ipc(t) for t in range(n)),
        stats=stats,
    )
    return DynamicMappingResult(
        result=result,
        epochs=epochs,
        remaps=remaps,
        migrations=migrations,
        mapping_history=tuple(history),
    )
