"""Figures 4 and 5: performance and performance-per-area comparison.

For every (microarchitecture, workload) pair the paper reports three
measurements:

* **BEST** — an oracle mapping policy: the best thread-to-pipeline
  mapping found by trying them all;
* **HEUR** — the profile-based heuristic of §2.1;
* **WORST** — the worst possible mapping.

For the monolithic baseline only one measurement exists, and for
two-threaded workloads on homogeneous configurations the three coincide
(all distinct mappings are equivalent).

The oracle search is two-phase for tractability: every distinct mapping
(after symmetry dedup) is *screened* with a short window, and only the
argmax/argmin are re-simulated at full length. Results are memoized per
process so Fig. 4, Fig. 5 and the headline summary share one sweep.

Scheduling: a sweep runs in four phases, every one that can keep the
worker pool busy running through a :class:`~repro.runner.batch.
BatchRunner`:

1. **profile** — the §2.1 profile pass (:func:`~repro.trace.profiling.
   profile_benchmark`) of every benchmark the sweep's heuristic needs,
   as one batch of :class:`~repro.trace.profiling.ProfileJob`;
2. **plan** — in the parent, every (configuration, workload) pair gets
   its heuristic mapping and oracle candidates; the candidate scan
   (:func:`~repro.core.mapping.scan_mappings`) runs once per
   (configuration, thread count) and is shared by every workload of
   that size;
3. **screen** and 4. **full length** — two *cross-pair* batches: all
   pairs' screens, then all pairs' remaining full-length runs. Before
   each batch the runner packs the traces and computes the warm
   snapshots it needs, as prep jobs on the same pool.

Both batches simulate each distinct machine run once: configurations
whose mappings occupy the same pipelines with the same threads
(:func:`~repro.core.mapping.machine_key`) share one simulation, and the
other runs get its result relabelled.

The pool stays saturated to the tail of the sweep instead of draining
at every pair boundary. In exact mode the candidate screens of *all*
pairs are packed into worker-count-sized :class:`~repro.runner.continuation.
ContinuationJob` bundles (at most one job per worker instead of one
job per candidate mapping); in screening mode the batch holds one
checkpointed ladder job per pair (pair-level granularity — the
checkpoints must live in one worker). Full-length runs are bundled the
same way: the single-mapping pairs' only runs and every pair's
post-screen BEST/HEUR/WORST continuations ship in bundles sized to the
worker count, so the sweep executes a handful of large jobs at both
ends instead of draining one job per run. Pass ``workers=`` (or set
``REPRO_WORKERS``) to fan out over processes; results are bit-identical
to the sequential path regardless.

``screening=True`` swaps the exact oracle screens for successive halving
(:class:`~repro.runner.screening.ScreenJob`): every candidate runs a
fraction of the screen window, the middle of the ranking is pruned, and
survivors *continue* from their checkpoints to the doubled window; the
selected best/worst (and the heuristic) continue straight to full
length. Pruning rounds rank by per-round *marginal* IPC (free from the
checkpoints; see the _SCREEN_* knobs below), the final round by
cumulative full-window IPC so selections tie-break exactly as exact
mode's. The mode is an approximation — tests assert it selects the same
oracle mapping as exact mode on the reference scenario — and exact mode
stays the default.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.area.model import config_area
from repro.core.config import STANDARD_CONFIG_NAMES, get_config
from repro.core.mapping import (
    heuristic_mapping,
    machine_key,
    scan_mappings,
    select_mappings,
)
from repro.core.simulation import SimResult, default_trace_length
from repro.experiments.scale import ExperimentScale, default_scale
from repro.metrics.stats import harmonic_mean
from repro.metrics.tables import format_grouped_bars
from repro.runner import BatchRunner
from repro.runner.continuation import (
    ContinuationRun,
    plan_bundles,
    run_bundled,
    unbundle_results,
)
from repro.runner.screening import ScreenJob
from repro.trace.profiling import ensure_profiles, profile_benchmark
from repro.workloads.definitions import WORKLOADS, Workload, get_workload

__all__ = [
    "WorkloadResult",
    "evaluate_config_workload",
    "run_performance_experiment",
    "class_size_means",
    "fig4_table",
    "fig5_table",
    "clear_result_cache",
]

#: Figures 4/5 x-axis order.
DEFAULT_CONFIGS: Tuple[str, ...] = STANDARD_CONFIG_NAMES


@dataclass(frozen=True)
class WorkloadResult:
    """BEST/HEUR/WORST results for one configuration on one workload."""

    config: str
    workload: str
    best: SimResult
    heur: SimResult
    worst: SimResult
    mappings_screened: int

    @property
    def area(self) -> float:
        return config_area(self.config)

    def ipc(self, which: str) -> float:
        return getattr(self, which).ipc

    def ppa(self, which: str) -> float:
        return getattr(self, which).ipc / self.area

    @property
    def degenerate(self) -> bool:
        """True when only one distinct mapping exists (all three equal)."""
        return self.mappings_screened <= 1


_CACHE: Dict[tuple, WorkloadResult] = {}

#: Successive-halving ladder for ``screening=True``: round 0 runs at
#: ``screen_target / 2**(rounds-1)`` (clamped to _SCREEN_MIN_TARGET) and
#: each pruning keeps _SCREEN_KEEP of the ranking, split between its two
#: tails. Pruning rounds rank by per-round *marginal* IPC (free from the
#: ladder's checkpoints), which tracks the full-window ranking well
#: enough to prune harder than the cumulative ladder did (keep 0.5 →
#: 0.35); survival is biased toward the top tail (2/3 top, 1/3 bottom)
#: because the contract-pinned selection is the oracle's argmax (the
#: planner still guarantees at least one bottom-tail survivor per round,
#: so the argmin lineage always reaches the final round). The parameters
#: were chosen against exact screening over a 10-pair spread: identical
#: BEST on the reference scenario, BEST-match elsewhere equal to the
#: symmetric cumulative ladder (4/10), ~16% fewer screen cycles. (0.67
#: is deliberate — ``ceil(k * frac)`` differs from 2/3 at small k and
#: the validation ran against this exact value.)
_SCREEN_ROUNDS = 4
_SCREEN_MIN_TARGET = 150
_SCREEN_KEEP = 0.35
_SCREEN_TOP_FRACTION = 0.67


def clear_result_cache() -> None:
    """Drop memoized experiment results (tests)."""
    _CACHE.clear()


def _profiled_misses(benchmarks: Sequence[str]) -> List[float]:
    return [profile_benchmark(b).misses_per_kilo_instruction for b in benchmarks]


def _cache_key(config_name: str, workload_name: str, scale: ExperimentScale,
               screening: bool) -> tuple:
    key = (config_name, workload_name, scale.cache_key)
    return key + ("screening",) if screening else key


@dataclass
class _PairPlan:
    """Execution state of one (configuration, workload) pair in a sweep."""

    config_name: str
    workload: Workload
    key: tuple
    #: the only mapping (monolithic / degenerate pairs); exclusive with screen
    single_map: Optional[Tuple[int, ...]] = None
    heur_map: Optional[Tuple[int, ...]] = None
    #: exact mode: candidates screened as bundled ContinuationRuns
    candidates: Optional[List[Tuple[int, ...]]] = None
    #: screening mode: the pair's checkpointed halving ladder
    screen_job: Optional[ScreenJob] = None
    candidates_count: int = 1
    single_result: Optional[SimResult] = None
    best_map: Optional[Tuple[int, ...]] = None
    worst_map: Optional[Tuple[int, ...]] = None
    full_results: Dict[Tuple[int, ...], SimResult] = field(default_factory=dict)


def _plan_pair(config_name: str, workload: Workload, scale: ExperimentScale,
               screening: bool,
               scans: Optional[Dict[Tuple[str, int], list]] = None) -> _PairPlan:
    """Classify a pair and build its screening plan (no simulation).

    ``scans`` memoizes :func:`~repro.core.mapping.scan_mappings` per
    (configuration, thread count) across the caller's sweep; the pair's
    candidates are exactly :func:`~repro.core.mapping.enumerate_mappings`'.
    """
    if scans is None:
        scans = {}
    key = _cache_key(config_name, workload.name, scale, screening)
    config = get_config(config_name)
    benchmarks = workload.benchmarks
    n = len(benchmarks)
    if config.is_monolithic:
        return _PairPlan(config_name, workload, key, single_map=(0,) * n)
    heur_map = heuristic_mapping(config, _profiled_misses(benchmarks))
    scan = scans.get((config_name, n))
    if scan is None:
        scan = scans[(config_name, n)] = scan_mappings(config, n)
    candidates = select_mappings(
        config, n, scan, max_mappings=scale.max_mappings,
        must_include=[heur_map],
    )
    if len(candidates) <= 1:
        return _PairPlan(config_name, workload, key, single_map=heur_map,
                         heur_map=heur_map)
    if not screening:
        # Exact mode: the seed's per-candidate screens, batched across
        # pairs and packed into worker-count-sized bundles by
        # _execute_plans (per-run results and cache identities are
        # exactly the per-job scheduler's).
        return _PairPlan(
            config_name, workload, key, heur_map=heur_map,
            candidates=list(candidates), candidates_count=len(candidates),
        )
    # Screening mode: one checkpointed halving ladder per pair. Screens
    # run over the full-length trace window (screens, full runs and the
    # folded best/worst continuations share one trace set and warm
    # snapshot per pair) and the job continues the selected best/worst
    # checkpoints — plus the heuristic's mapping — straight to the full
    # commit target.
    screen_job = ScreenJob(
        config_name,
        tuple(benchmarks),
        tuple(candidates),
        scale.screen_target,
        rounds=_SCREEN_ROUNDS,
        keep=_SCREEN_KEEP,
        top_fraction=_SCREEN_TOP_FRACTION,
        min_target=_SCREEN_MIN_TARGET,
        trace_length=default_trace_length(scale.commit_target),
        full_target=scale.commit_target,
        extra_fulls=(heur_map,),
    )
    return _PairPlan(
        config_name,
        workload,
        key,
        heur_map=heur_map,
        screen_job=screen_job,
        candidates_count=len(candidates),
    )


def _result_key(run: ContinuationRun) -> tuple:
    """Everything a run's result depends on except its labels (config
    name and mapping): the machine it simulates, the benchmarks, the
    commit target, the resolved trace length and the seed."""
    config = get_config(run.config) if isinstance(run.config, str) else run.config
    length = (run.trace_length if run.trace_length is not None
              else default_trace_length(run.commit_target))
    return (machine_key(config, run.mapping), run.benchmarks,
            run.commit_target, length, run.seed)


class _Machines:
    """One sweep's results by :func:`_result_key`, so each distinct
    machine run is simulated once however many configurations ask."""

    def __init__(self, runner: BatchRunner) -> None:
        self.cache = runner.cache
        self.results: Dict[tuple, SimResult] = {}

    def plan(self, runs: Sequence[ContinuationRun]
             ) -> Tuple[List[tuple], Dict[tuple, ContinuationRun]]:
        """The key of every run, and the runs to simulate: the first run
        of each key this sweep has not seen yet, in run order."""
        keys = [_result_key(r) for r in runs]
        new: Dict[tuple, ContinuationRun] = {}
        for k, r in zip(keys, runs):
            if k not in self.results and k not in new:
                new[k] = r
        return keys, new

    def publish(self, runs: Sequence[ContinuationRun], keys: Sequence[tuple],
                new: Dict[tuple, ContinuationRun],
                simulated: Sequence[SimResult]) -> List[SimResult]:
        """Record ``simulated`` (one result per ``new`` run) and return one
        result per run: a run that was not simulated gets its
        representative's result relabelled with its own config name and
        mapping, and is cached under its own SimJob identity."""
        self.results.update(zip(new, simulated))
        out: List[SimResult] = []
        for k, run in zip(keys, runs):
            result = self.results[k]
            if new.get(k) is not run:
                name = run.config if isinstance(run.config, str) else run.config.name
                result = replace(result, config_name=name, mapping=run.mapping,
                                 stats=dict(result.stats))
                if self.cache is not None:
                    self.cache.put(run.as_sim_job(), result)
            out.append(result)
        return out


def _execute_plans(plans: Sequence[_PairPlan], scale: ExperimentScale,
                   runner: BatchRunner, progress: bool = False) -> None:
    """Run every plan's screens and full-length runs as cross-pair batches
    and publish the finished :class:`WorkloadResult` objects to the memo.

    Each distinct machine run is simulated once per call: runs of
    different configurations that occupy the same pipelines with the
    same threads (see :func:`~repro.core.mapping.machine_key`) share one
    simulation, across both batches, and the others get its result
    relabelled.

    Two batches total: every pair's screens (exact mode: the candidate
    screens of *all* pairs — plus the single-mapping pairs' only runs —
    bundled together; screening mode: one
    :class:`~repro.runner.screening.ScreenJob` ladder per pair), then
    every pair's still-missing full-length BEST/HEUR/WORST runs — so the
    worker pool never drains between pairs.

    Per-run work ships as :class:`~repro.runner.continuation.
    ContinuationJob` bundles, at most one per worker, each executing
    its runs back-to-back inside one process. Exact-mode screens are
    bundled exactly like full-length continuations, so the screen batch
    is at most ``runner.workers`` jobs (plus the screening-mode ladders)
    instead of one job per candidate mapping — with bit-identical
    results and unchanged per-run cache identities
    (:meth:`~repro.runner.continuation.ContinuationRun.as_sim_job`).
    """
    n_bundles = runner.workers
    machines = _Machines(runner)

    # --- phase 1: screens (plus single-mapping pairs' only runs) ---------
    # One bundled run list covers the exact-mode candidate screens and
    # the single-mapping pairs' full runs; ``owners[i]`` describes
    # ``runs[i]`` and ``unbundle_results`` restores run order, so the
    # bookkeeping is index-aligned regardless of bundling.
    runs: List[ContinuationRun] = []
    owners: List[Tuple[str, _PairPlan, Optional[Tuple[int, ...]]]] = []
    ladder_jobs: List[ScreenJob] = []
    ladder_plans: List[_PairPlan] = []
    for p in plans:
        if p.single_map is not None:
            runs.append(
                ContinuationRun(p.config_name, p.workload.benchmarks,
                                p.single_map, scale.commit_target)
            )
            owners.append(("single", p, None))
        elif p.candidates is not None:
            for m in p.candidates:
                runs.append(
                    ContinuationRun(p.config_name, p.workload.benchmarks, m,
                                    scale.screen_target)
                )
                owners.append(("screen", p, m))
        elif p.screen_job is not None:
            ladder_jobs.append(p.screen_job)
            ladder_plans.append(p)
    keys, new = machines.plan(runs)
    bundles = plan_bundles(list(new.values()), n_bundles)
    batch: List = bundles + ladder_jobs
    if batch:
        if progress:  # pragma: no cover - console feedback only
            print(f"  screening phase: {len(runs)} runs ({len(new)} "
                  f"simulated) + {len(ladder_jobs)} ladders in "
                  f"{len(batch)} jobs ...", flush=True)
        results = runner.run(batch)
        flat = machines.publish(
            runs, keys, new, unbundle_results(results[:len(bundles)], len(new))
        )
        exact_scores: Dict[int, List[Tuple[float, Tuple[int, ...]]]] = {}
        for (kind, p, m), r in zip(owners, flat):
            if kind == "screen":
                exact_scores.setdefault(id(p), []).append((r.ipc, m))
            else:
                p.single_result = r
        for p, r in zip(ladder_plans, results[len(bundles):]):
            p.best_map = r.best()
            p.worst_map = r.worst()
            p.full_results.update(dict(r.full_results))
        for p in plans:
            screened = exact_scores.get(id(p))
            if screened is not None:
                p.best_map = max(screened)[1]
                p.worst_map = min(screened)[1]

    # --- phase 2: full-length continuations (bundled across pairs) ------
    # Screening-mode ladders already folded the best/worst/heuristic full
    # runs; exact mode resumes all three (deduplicated) here, packed into
    # at most ``n_bundles`` worker jobs.
    full_runs: List[ContinuationRun] = []
    full_owners: List[Tuple[_PairPlan, Tuple[int, ...]]] = []
    for p in plans:
        if p.best_map is None:
            continue
        unique_maps = list(dict.fromkeys(
            [p.heur_map, p.best_map, p.worst_map]
        ))
        for m in unique_maps:
            if m in p.full_results:
                continue
            full_runs.append(
                ContinuationRun(p.config_name, p.workload.benchmarks, m,
                                scale.commit_target)
            )
            full_owners.append((p, m))
    if full_runs:
        keys, new = machines.plan(full_runs)
        if progress:  # pragma: no cover - console feedback only
            print(f"  full-length continuations: {len(full_runs)} runs "
                  f"({len(new)} simulated) in "
                  f"{min(len(new), n_bundles)} bundles ...", flush=True)
        simulated = run_bundled(runner, list(new.values())) if new else []
        for (p, m), r in zip(full_owners,
                             machines.publish(full_runs, keys, new, simulated)):
            p.full_results[m] = r

    # --- assembly --------------------------------------------------------
    for p in plans:
        if p.single_map is not None:
            res = p.single_result
            out = WorkloadResult(p.config_name, p.workload.name,
                                 res, res, res, 1)
        else:
            heur_res = p.full_results[p.heur_map]
            best_res = p.full_results[p.best_map]
            worst_res = p.full_results[p.worst_map]
            # The full-length runs may disagree with the screening order
            # at the margin; restore the BEST >= HEUR >= WORST invariant
            # over the runs actually measured (the oracle, by definition,
            # can pick any of them).
            trio = [heur_res, best_res, worst_res]
            best_res = max(trio, key=lambda r: r.ipc)
            worst_res = min(trio, key=lambda r: r.ipc)
            out = WorkloadResult(p.config_name, p.workload.name, best_res,
                                 heur_res, worst_res, p.candidates_count)
        _CACHE[p.key] = out


def evaluate_config_workload(
    config_name: str,
    workload: Workload | str,
    scale: Optional[ExperimentScale] = None,
    runner: Optional[BatchRunner] = None,
    screening: bool = False,
) -> WorkloadResult:
    """Produce the BEST/HEUR/WORST triple for one configuration/workload.

    ``runner`` executes the oracle screens (and the full-length runs) —
    in parallel when it has multiple workers; a sequential runner is
    created when omitted. Results are identical either way.
    """
    if isinstance(workload, str):
        workload = get_workload(workload)
    scale = scale or default_scale()
    key = _cache_key(config_name, workload.name, scale, screening)
    cached = _CACHE.get(key)
    if cached is not None:
        return cached
    plan = _plan_pair(config_name, workload, scale, screening)
    if runner is None:
        with BatchRunner(workers=1) as own:
            _execute_plans([plan], scale, own)
    else:
        _execute_plans([plan], scale, runner)
    return _CACHE[key]


def run_performance_experiment(
    config_names: Sequence[str] = DEFAULT_CONFIGS,
    workload_names: Optional[Sequence[str]] = None,
    scale: Optional[ExperimentScale] = None,
    progress: bool = False,
    workers: Optional[int] = None,
    runner: Optional[BatchRunner] = None,
    screening: bool = False,
) -> Dict[str, Dict[str, WorkloadResult]]:
    """The full sweep behind Figs. 4 and 5: results[config][workload].

    ``workers`` (or an explicit ``runner``) parallelizes the sweep; every
    screening round is one batch *across* all (configuration, workload)
    pairs, so the pool stays saturated through the sweep tail. The
    produced tables are identical to a sequential sweep.

    ``screening=True`` enables successive-halving oracle screening — a
    validated approximation (same selections as exact mode on the
    reference scenario, asserted by tests) that roughly halves screening
    work; the default remains the exact screen.

    Parallel batches run supervised (retry/timeout/pool respawn; see
    :mod:`repro.runner.resilience`); with ``progress=True`` the sweep
    footer prints the runner's :class:`~repro.runner.resilience.RunReport`
    so long sweeps say how much fault handling they needed.
    """
    scale = scale or default_scale()
    if workload_names is None:
        workload_names = list(WORKLOADS)
    created = runner is None
    if created:
        runner = BatchRunner(workers=workers)
    try:
        pairs: List[Tuple[str, Workload]] = []
        for cn in config_names:
            config = get_config(cn)
            for wn in workload_names:
                w = get_workload(wn)
                if w.num_threads > config.contexts_for(w.num_threads):
                    continue  # workload does not fit this configuration
                pairs.append((cn, w))
        pending = [
            (cn, w) for cn, w in pairs
            if _cache_key(cn, w.name, scale, screening) not in _CACHE
        ]
        # Profile every benchmark the heuristic will sort on as one batch
        # (the pool would otherwise idle through the serial pass).
        ensure_profiles(
            (b for cn, w in pending if not get_config(cn).is_monolithic
             for b in w.benchmarks),
            runner.run,
        )
        scans: Dict[Tuple[str, int], list] = {}
        todo = [_plan_pair(cn, w, scale, screening, scans) for cn, w in pending]
        if todo:
            if progress:  # pragma: no cover - console feedback only
                print(f"  sweep: {len(todo)} (config, workload) pairs ...",
                      flush=True)
            _execute_plans(todo, scale, runner, progress=progress)
            if progress:  # pragma: no cover - console feedback only
                print(f"  {runner.report.describe()}", flush=True)
                if runner.report.eventful:
                    print("  (recovery events occurred; results are "
                          "bit-identical regardless)", flush=True)
        results: Dict[str, Dict[str, WorkloadResult]] = {
            cn: {} for cn in config_names
        }
        for cn, w in pairs:
            results[cn][w.name] = _CACHE[
                _cache_key(cn, w.name, scale, screening)
            ]
        return results
    finally:
        if created:
            runner.close()


# ---------------------------------------------------------------- summaries


def class_size_means(
    results: Mapping[str, Mapping[str, WorkloadResult]],
    workload_class: str,
    metric: str = "ipc",
) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Harmonic-mean summary: out[group][config][series].

    Groups are '2 THREADS', '4 THREADS', '6 THREADS' and 'HMEAN' (overall,
    as in the figures); series are BEST/HEUR/WORST.
    """
    sizes = sorted(
        {WORKLOADS[w].num_threads for per in results.values() for w in per}
    )
    groups = [f"{s} THREADS" for s in sizes] + ["HMEAN"]
    out: Dict[str, Dict[str, Dict[str, float]]] = {g: {} for g in groups}
    for config, per in results.items():
        for size in sizes + [None]:
            vals: Dict[str, List[float]] = {"BEST": [], "HEUR": [], "WORST": []}
            for wn, wr in per.items():
                w = WORKLOADS[wn]
                if w.workload_class != workload_class:
                    continue
                if size is not None and w.num_threads != size:
                    continue
                for series in ("BEST", "HEUR", "WORST"):
                    r = wr.ipc(series.lower()) if metric == "ipc" else wr.ppa(series.lower())
                    vals[series].append(r)
            if not vals["HEUR"]:
                continue
            group = f"{size} THREADS" if size is not None else "HMEAN"
            out[group][config] = {
                s: harmonic_mean(v) for s, v in vals.items() if v
            }
    return {g: d for g, d in out.items() if d}


def fig4_table(
    results: Mapping[str, Mapping[str, WorkloadResult]], workload_class: str
) -> str:
    """Fig. 4(a/b/c) for one workload class, as text."""
    means = class_size_means(results, workload_class, metric="ipc")
    groups = list(means)
    bars = [c for c in results if any(c in means[g] for g in groups)]
    return format_grouped_bars(
        groups,
        bars,
        means,
        title=f"Fig. 4 — IPC, {workload_class} workloads (BEST/HEUR/WORST, hmean)",
        value_fmt="{:.3f}",
    )


def fig5_table(
    results: Mapping[str, Mapping[str, WorkloadResult]], workload_class: str
) -> str:
    """Fig. 5(a/b/c) for one workload class, as text (IPC per mm²)."""
    means = class_size_means(results, workload_class, metric="ppa")
    groups = list(means)
    bars = [c for c in results if any(c in means[g] for g in groups)]
    return format_grouped_bars(
        groups,
        bars,
        means,
        title=f"Fig. 5 — IPC/mm2, {workload_class} workloads (BEST/HEUR/WORST, hmean)",
        value_fmt="{:.5f}",
    )
