"""Successive-halving screens for the oracle mapping search.

The BEST/WORST oracle policies rank every candidate thread-to-pipeline
mapping with a short *screen* simulation. Exact screening runs every
candidate at the full screen window — robust but wasteful: most of the
window is spent separating mappings that are nowhere near either tail.

:class:`HalvingScreen` plans the classic successive-halving alternative
(Jamieson & Talwalkar; the staged pruning used by design-space studies in
PAPERS.md): every candidate runs at a fraction of the window, the middle
of the pack is eliminated, survivors re-run at double the window, until
the final round runs the few remaining candidates at the full window.
Because the oracle needs *both* extremes, each round keeps the top and
bottom of the ranking and discards the middle — the argmax/argmin are
overwhelmingly likely to stay in their tail at every width, which the
reference-scenario equivalence test pins.

Pruning rounds rank by per-round *marginal* IPC — instructions committed
and cycles elapsed since the candidate's previous checkpoint, free from
the checkpoints the ladder keeps anyway. On the synthetic traces the
early window is phase-heavy, so cumulative IPC drags every later
ranking toward the (shared) start-up transient; the marginal ranking
sees only the fresh window each round and tracks full-window rank
better, which is what lets the ladder prune harder (a smaller ``keep``)
without disturbing the selected extremes. The *final* round always
scores by cumulative full-window IPC, so selection and reported scores
remain exactly what the exact screen produces for those candidates
(:mod:`tests.experiments.test_screening_equivalence` pins this on the
reference scenario).

:class:`HalvingScreen` only *plans*; :class:`ScreenJob` executes a whole
ladder for one (configuration, workload) pair inside one worker, keeping
survivors' :class:`~repro.core.engine.Processor` objects alive between
rounds so they *continue* executing instead of restarting (checkpointed
continuation — bit-identical to fresh longer runs). The experiment sweep
ships one ``ScreenJob`` per pair in a single cross-pair batch
(:func:`repro.experiments.performance.run_performance_experiment`);
parallelism is therefore pair-granular in screening mode, while exact
mode fans out per-candidate ``SimJob``\\ s.

With ``rounds=1`` the plan degenerates to the exact screen (every
candidate, full window).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil
from typing import TYPE_CHECKING, ClassVar, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.config import MicroarchConfig, get_config
from repro.core.simulation import SimResult
from repro.runner.jobs import TraceUnit

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runner.cache import ResultCache

__all__ = ["HalvingScreen", "ScreenJob", "ScreenResult"]

Mapping = Tuple[int, ...]


class HalvingScreen:
    """Round planner for one candidate set.

    Parameters
    ----------
    candidates:
        The mappings to screen (deduplicated, deterministic order).
    final_target:
        Commit target of the last round (the exact screen's window).
    rounds:
        Ladder length; round ``r`` runs at ``final_target / 2**(R-1-r)``
        (clamped to ``min_target``). ``1`` reproduces exact screening.
    keep:
        Fraction of survivors kept per pruning step (split between the
        top and bottom of the ranking).
    top_fraction:
        Share of each kept cohort taken from the *top* of the ranking
        (the rest comes from the bottom). The oracle's argmax is the
        contract-pinned selection, so the sweep biases survival toward
        the top tail; ``0.5`` reproduces the symmetric split.
    min_survivors:
        Pruning floor — once reached, the plan jumps straight to the
        final round.
    min_target:
        Smallest useful screen window; early rounds never go below it.
    """

    def __init__(
        self,
        candidates: Sequence[Mapping],
        final_target: int,
        *,
        rounds: int = 4,
        keep: float = 0.5,
        top_fraction: float = 0.5,
        min_survivors: int = 3,
        min_target: int = 150,
    ) -> None:
        if not candidates:
            raise ValueError("need at least one candidate mapping")
        if rounds < 1:
            raise ValueError("rounds must be >= 1")
        if not 0.0 < keep <= 1.0:
            raise ValueError("keep must be in (0, 1]")
        if not 0.0 < top_fraction <= 1.0:
            raise ValueError("top_fraction must be in (0, 1]")
        ladder: List[int] = []
        for r in range(rounds):
            target = max(min_target, final_target >> (rounds - 1 - r))
            if not ladder or target > ladder[-1]:
                ladder.append(target)
        ladder[-1] = final_target
        self.targets = ladder
        self.survivors: List[Mapping] = list(dict.fromkeys(candidates))
        self.keep = keep
        self.top_fraction = top_fraction
        self.min_survivors = min_survivors
        self._round = 0
        self.finished = False
        self.screens_run = 0
        self._final_scores: Dict[Mapping, float] = {}
        if len(self.survivors) <= min_survivors:
            self._round = len(self.targets) - 1  # nothing to prune

    # -- round protocol ----------------------------------------------------

    @property
    def round_target(self) -> int:
        """Commit target of the round currently awaiting results."""
        return self.targets[self._round]

    @property
    def is_final_round(self) -> bool:
        return self._round == len(self.targets) - 1

    def feed(self, scores: Dict[Mapping, float]) -> None:
        """Consume the current round's ``mapping -> score`` ranking.

        Non-final rounds prune to the ranking's two tails and advance the
        ladder; the final round freezes the scores :meth:`best` /
        :meth:`worst` select from. The planner is metric-agnostic:
        :class:`ScreenJob` feeds per-round *marginal* IPC on pruning
        rounds and cumulative full-window IPC on the final round, so
        selection ties break exactly as the exact screen's did.
        """
        if self.finished:
            raise RuntimeError("screen already finished")
        missing = [m for m in self.survivors if m not in scores]
        if missing:
            raise ValueError(f"round scores missing {len(missing)} mappings")
        self.screens_run += len(self.survivors)
        if self.is_final_round:
            self._final_scores = {m: scores[m] for m in self.survivors}
            self.finished = True
            return
        # Deterministic ranking: ties broken by the mapping tuple itself.
        order = sorted(self.survivors, key=lambda m: (-scores[m], m))
        k = max(self.min_survivors, ceil(len(order) * self.keep))
        if k >= len(order):
            self.survivors = order
        else:
            # The oracle needs *both* extremes: however top-biased the
            # split, at least one bottom-tail candidate must survive to
            # the final round or worst() degenerates to a top mapping.
            top = ceil(k * self.top_fraction)
            if top >= k and k > 1:
                top = k - 1
            bottom = k - top
            self.survivors = order[:top] + (order[-bottom:] if bottom else [])
        self._round += 1
        if len(self.survivors) <= self.min_survivors:
            self._round = len(self.targets) - 1  # pruning floor: go final

    # -- selection ---------------------------------------------------------

    def _require_finished(self) -> Dict[Mapping, float]:
        if not self.finished:
            raise RuntimeError("screen not finished")
        return self._final_scores

    def best(self) -> Mapping:
        """Argmax of the final round — ties resolved exactly as the seed
        driver's ``max((ipc, mapping))`` did."""
        scores = self._require_finished()
        return max(scores, key=lambda m: (scores[m], m))

    def worst(self) -> Mapping:
        """Argmin of the final round (seed ``min((ipc, mapping))``)."""
        scores = self._require_finished()
        return min(scores, key=lambda m: (scores[m], m))

    def final_scores(self) -> Dict[Mapping, float]:
        return dict(self._require_finished())


# ------------------------------------------------------------- screen jobs


@dataclass(frozen=True)
class ScreenResult:
    """Outcome of one :class:`ScreenJob`.

    ``final_scores`` holds the last round's ``mapping -> IPC`` — with
    ``rounds=1`` that is every candidate at the full window, exactly the
    scores the exact per-candidate screen produced. When the job carried
    a ``full_target``, ``full_results`` holds complete full-length
    :class:`~repro.core.simulation.SimResult` objects for the selected
    best/worst mappings (their checkpoints continued to the full window —
    bit-identical to fresh full-length runs).
    """

    final_scores: Tuple[Tuple[Mapping, float], ...]
    screens_run: int
    candidates: int
    full_results: Tuple[Tuple[Mapping, "SimResult"], ...] = ()

    def scores(self) -> Dict[Mapping, float]:
        return dict(self.final_scores)

    def best(self) -> Mapping:
        """Argmax over the final round (seed ``max((ipc, mapping))``)."""
        scores = self.scores()
        return max(scores, key=lambda m: (scores[m], m))

    def worst(self) -> Mapping:
        """Argmin over the final round (seed ``min((ipc, mapping))``)."""
        scores = self.scores()
        return min(scores, key=lambda m: (scores[m], m))


@dataclass(frozen=True)
class ScreenJob:
    """Screen one (configuration, workload)'s candidate mappings.

    One job covers the pair's whole screening ladder so it can
    *checkpoint*: candidates keep their :class:`~repro.core.engine.
    Processor` between rounds and survivors simply continue executing to
    the next window. A resumed simulation is bit-identical to a fresh
    longer one (the commit target only decides when the run stops), so
    the final round's scores equal what exact screening would have
    produced for the surviving candidates — successive halving then costs
    ``sum(round widths)`` instead of ``rounds × full width``.

    The checkpoints double as the marginal-IPC bookkeeping: pruning
    rounds rank survivors by ``Δcommitted / Δcycles`` since their last
    checkpoint (no extra simulation — the deltas fall out of state the
    job already holds), while the final round scores cumulatively.

    With ``rounds=1`` this is exact screening: every candidate runs the
    full window from scratch, no checkpoint retained.

    ``full_target`` (screening mode) folds the oracle's full-length runs
    into the job: after the ladder picks best/worst, their checkpointed
    processors keep executing to the full commit target and the job
    returns finished :class:`~repro.core.simulation.SimResult` objects.
    ``extra_fulls`` (e.g. the heuristic's mapping) are run fresh at the
    full target in the same job — bit-identical to separate full-length
    jobs, but sharing the pair's traces and warm snapshot in one worker.
    """

    config: Union[str, MicroarchConfig]
    benchmarks: Tuple[str, ...]
    candidates: Tuple[Mapping, ...]
    final_target: int
    rounds: int = 1

    #: BatchRunner parallelizes batches of heavy jobs at 2+ jobs (a
    #: whole ladder amortizes its dispatch overhead by construction).
    heavy: ClassVar[bool] = True
    keep: float = 0.5
    top_fraction: float = 0.5
    min_survivors: int = 3
    min_target: int = 150
    trace_length: Optional[int] = None
    seed: int = 0
    full_target: Optional[int] = None
    extra_fulls: Tuple[Mapping, ...] = ()

    def execute(self, cache: Optional["ResultCache"] = None) -> ScreenResult:
        """Run the ladder in this process (checkpointed continuation),
        serving from / populating ``cache`` when one is given (the whole
        ladder caches as one unit under :meth:`cache_key_fields`)."""
        if cache is not None:
            hit = cache.get(self)
            if hit is not None:
                return hit
        result = self._execute_ladder()
        if cache is not None:
            cache.put(self, result)
        return result

    def _execute_ladder(self) -> ScreenResult:
        from repro.core.engine import Processor
        from repro.core.simulation import default_trace_length, resolve_traces

        config = (
            get_config(self.config) if isinstance(self.config, str) else self.config
        )
        length = (
            self.trace_length
            if self.trace_length is not None
            else default_trace_length(self.final_target)
        )
        traces = resolve_traces(self.benchmarks, length, self.seed)
        screen = HalvingScreen(
            self.candidates,
            self.final_target,
            rounds=self.rounds,
            keep=self.keep,
            top_fraction=self.top_fraction,
            min_survivors=self.min_survivors,
            min_target=self.min_target,
        )
        checkpoints: Dict[Mapping, Processor] = {}
        #: per-mapping (cycles, committed) at the previous checkpoint —
        #: the basis of the pruning rounds' marginal-IPC ranking.
        progress: Dict[Mapping, Tuple[int, int]] = {}
        while not screen.finished:
            target = screen.round_target
            final_round = screen.is_final_round
            keep_procs = not final_round or self.full_target is not None
            scores: Dict[Mapping, float] = {}
            for m in screen.survivors:
                proc = checkpoints.pop(m, None)
                if proc is None:
                    prev_cycles = prev_committed = 0
                    proc = Processor(config, traces, m, target)
                    proc.warm()
                    # Steady-state measurement, as run_simulation does —
                    # keeps the folded full-length results bit-identical.
                    proc.mem.reset_stats()
                    proc.branch_unit.reset_stats()
                else:
                    # Continue the checkpointed run to the wider window —
                    # deterministic, so identical to a fresh longer run.
                    prev_cycles, prev_committed = progress[m]
                    proc.commit_target = target
                    proc.finished = False
                proc.run()
                if final_round:
                    # Selection + reported scores: cumulative full-window
                    # IPC, bit-equal to the exact screen's score.
                    scores[m] = proc.aggregate_ipc()
                else:
                    # Pruning: IPC over this round's fresh window only
                    # (for round 0 the two coincide exactly).
                    d_cycles = proc.cycle - prev_cycles
                    d_committed = sum(proc.committed) - prev_committed
                    scores[m] = (
                        d_committed / d_cycles
                        if d_cycles
                        else proc.aggregate_ipc()
                    )
                if keep_procs:
                    checkpoints[m] = proc
                    progress[m] = (proc.cycle, sum(proc.committed))
            screen.feed(scores)
            if not screen.finished:
                alive = set(screen.survivors)
                for m in list(checkpoints):
                    if m not in alive:
                        del checkpoints[m]
        final = screen.final_scores()
        full_results: List[Tuple[Mapping, "SimResult"]] = []
        if self.full_target is not None:
            from repro.core.simulation import collect_result

            done = set()
            for m in dict.fromkeys((screen.best(), screen.worst())):
                proc = checkpoints[m]
                proc.commit_target = self.full_target
                proc.finished = False
                proc.run()
                full_results.append(
                    (m, collect_result(proc, config.name, self.benchmarks, m,
                                       self.full_target))
                )
                done.add(m)
            for m in dict.fromkeys(self.extra_fulls):
                if m in done:
                    continue
                proc = Processor(config, traces, m, self.full_target)
                proc.warm()
                proc.mem.reset_stats()
                proc.branch_unit.reset_stats()
                proc.run()
                full_results.append(
                    (m, collect_result(proc, config.name, self.benchmarks, m,
                                       self.full_target))
                )
        checkpoints.clear()
        return ScreenResult(
            final_scores=tuple(sorted(final.items())),
            screens_run=screen.screens_run,
            candidates=len(self.candidates),
            full_results=tuple(full_results),
        )

    # -- shared-store / result-cache integration ---------------------------

    def trace_triples(self) -> List[Tuple[str, int, int]]:
        """Traces this job streams (for the runner's pre-pack pass)."""
        from repro.core.simulation import (
            default_trace_length,
            resolve_trace_triples,
        )

        length = (
            self.trace_length
            if self.trace_length is not None
            else default_trace_length(self.final_target)
        )
        return resolve_trace_triples(self.benchmarks, length, self.seed)

    def trace_manifest(self) -> Tuple[TraceUnit, ...]:
        """One unit: the whole ladder shares one trace set + warm set."""
        return (
            TraceUnit(triples=tuple(self.trace_triples()), config=self.config),
        )

    def cache_key_fields(self) -> dict:
        """Content-hash fields for the on-disk result cache."""
        config = self.config if isinstance(self.config, str) else repr(self.config)
        return {
            "kind": "screen",
            # Ranking-semantics salt: marginal-IPC pruning rounds (this
            # PR) can keep different survivors than cumulative ranking
            # did, so cached results from either regime must not alias.
            "ranking": "marginal-v1",
            "config": config,
            "benchmarks": list(self.benchmarks),
            "candidates": [list(m) for m in self.candidates],
            "final_target": self.final_target,
            "rounds": self.rounds,
            "keep": self.keep,
            "top_fraction": self.top_fraction,
            "min_survivors": self.min_survivors,
            "min_target": self.min_target,
            "trace_length": self.trace_length,
            "seed": self.seed,
            "full_target": self.full_target,
            "extra_fulls": [list(m) for m in self.extra_fulls],
        }

    def result_payload(self, result: ScreenResult) -> dict:
        from repro.runner.cache import sim_result_payload

        return {
            "kind": "screen",
            "final_scores": [[list(m), s] for m, s in result.final_scores],
            "screens_run": result.screens_run,
            "candidates": result.candidates,
            "full_results": [
                [list(m), sim_result_payload(r)]
                for m, r in result.full_results
            ],
        }

    def restore_result(self, payload: dict) -> ScreenResult:
        from repro.runner.cache import sim_result_restore

        return ScreenResult(
            final_scores=tuple(
                (tuple(m), s) for m, s in payload["final_scores"]
            ),
            screens_run=payload["screens_run"],
            candidates=payload["candidates"],
            full_results=tuple(
                (tuple(m), sim_result_restore(r))
                for m, r in payload["full_results"]
            ),
        )
