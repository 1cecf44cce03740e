"""--screening vs exact oracle screening: the validated-approximation
contract.

Screening mode is allowed to *evaluate* differently (staged windows,
checkpointed continuation) but on the reference scenario it must *select*
the same oracle mapping as the exact screen, and the full-length numbers
it reports for its selections must be bit-identical to fresh full-length
simulations. Everything here is deterministic — these are equality
assertions, not statistical ones.
"""

import pytest

from repro.core.simulation import run_simulation
from repro.experiments.performance import (
    clear_result_cache,
    evaluate_config_workload,
)
from repro.experiments.scale import ExperimentScale

#: The reference scenario (the golden/benchmark configuration family) at
#: the default experiment scale (``ExperimentScale()``, what ``repro
#: figures`` runs with no scale override).
REFERENCE_CONFIG = "2M4+2M2"
REFERENCE_WORKLOAD = "4W6"
REFERENCE_SCALE = ExperimentScale(
    commit_target=8000, screen_target=1500, max_mappings=36
)


@pytest.fixture(scope="module")
def reference_pair():
    """(exact, screened) WorkloadResults for the reference scenario —
    computed once for the whole module (they are deterministic)."""
    clear_result_cache()
    exact = evaluate_config_workload(
        REFERENCE_CONFIG, REFERENCE_WORKLOAD, REFERENCE_SCALE
    )
    screened = evaluate_config_workload(
        REFERENCE_CONFIG, REFERENCE_WORKLOAD, REFERENCE_SCALE, screening=True
    )
    yield exact, screened
    clear_result_cache()


def test_screening_selects_same_oracle_mapping_on_reference_scenario(
    reference_pair,
):
    exact, screened = reference_pair
    # Same oracle (BEST) mapping selected, hence identical BEST numbers.
    assert screened.best.mapping == exact.best.mapping
    assert screened.best == exact.best
    # The heuristic run is screening-independent.
    assert screened.heur == exact.heur
    # Both modes screened the same candidate space.
    assert screened.mappings_screened == exact.mappings_screened


def test_screening_results_are_real_full_length_runs(reference_pair):
    """Whatever screening selects, the reported numbers must come from
    genuine full-length simulations (folded continuations included)."""
    _, screened = reference_pair
    seen = set()
    for res in (screened.best, screened.heur, screened.worst):
        if res.mapping in seen:
            continue
        seen.add(res.mapping)
        fresh = run_simulation(
            REFERENCE_CONFIG,
            res.benchmarks,
            res.mapping,
            REFERENCE_SCALE.commit_target,
            trace_length=REFERENCE_SCALE.commit_target,
        )
        assert res == fresh


def test_screening_preserves_ordering_invariant(reference_pair):
    _, screened = reference_pair
    assert screened.best.ipc >= screened.heur.ipc >= screened.worst.ipc


def test_screening_and_exact_results_cached_separately():
    clear_result_cache()
    tiny = ExperimentScale(commit_target=800, screen_target=300, max_mappings=8)
    a = evaluate_config_workload(REFERENCE_CONFIG, "2W7", tiny)
    b = evaluate_config_workload(REFERENCE_CONFIG, "2W7", tiny, screening=True)
    assert a is evaluate_config_workload(REFERENCE_CONFIG, "2W7", tiny)
    assert b is evaluate_config_workload(
        REFERENCE_CONFIG, "2W7", tiny, screening=True
    )
    assert a is not b
    clear_result_cache()
