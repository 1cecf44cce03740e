"""Integration tests: the Fig. 4/5 experiment driver (tiny scale)."""

import pytest

import repro.experiments.performance as performance
from repro.core.config import get_config
from repro.core.mapping import machine_key
from repro.core.simulation import run_simulation
from repro.experiments.performance import (
    _execute_plans,
    _plan_pair,
    class_size_means,
    clear_result_cache,
    evaluate_config_workload,
    fig4_table,
    fig5_table,
    run_performance_experiment,
)
from repro.runner import BatchRunner
from repro.runner.continuation import ContinuationJob
from repro.runner.jobs import SimJob
from repro.workloads.definitions import get_workload


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_result_cache()
    yield


def test_monolithic_single_measurement(tiny_scale):
    wr = evaluate_config_workload("M8", "2W1", tiny_scale)
    assert wr.best is wr.heur is wr.worst
    assert wr.degenerate


def test_homogeneous_two_threads_coincide(tiny_scale):
    """§5: on homogeneous configs the three 2-thread measurements match."""
    wr = evaluate_config_workload("3M4", "2W1", tiny_scale)
    assert wr.degenerate
    assert wr.best.ipc == wr.heur.ipc == wr.worst.ipc


def test_hetero_best_heur_worst_ordering(tiny_scale):
    wr = evaluate_config_workload("2M4+2M2", "2W7", tiny_scale)
    assert wr.best.ipc >= wr.heur.ipc >= wr.worst.ipc
    assert wr.mappings_screened >= 2


def test_results_cached(tiny_scale):
    a = evaluate_config_workload("2M4+2M2", "2W1", tiny_scale)
    b = evaluate_config_workload("2M4+2M2", "2W1", tiny_scale)
    assert a is b


def test_ppa_uses_config_area(tiny_scale):
    wr = evaluate_config_workload("2M4+2M2", "2W1", tiny_scale)
    assert wr.ppa("heur") == pytest.approx(wr.heur.ipc / wr.area)


def test_workload_too_big_is_skipped(tiny_scale):
    # 1M4+1M2 offers only 3 contexts: 4-thread workloads must be skipped.
    res = run_performance_experiment(
        config_names=["1M4+1M2"], workload_names=["2W1", "4W1"], scale=tiny_scale
    )
    assert "2W1" in res["1M4+1M2"]
    assert "4W1" not in res["1M4+1M2"]
    # 6W1 fits 2M4+2M2 exactly (6 contexts) and must not be skipped.
    res2 = run_performance_experiment(
        config_names=["3M4"], workload_names=["6W1"], scale=tiny_scale
    )
    assert "6W1" in res2["3M4"]


def test_class_size_means_structure(tiny_scale):
    res = run_performance_experiment(
        config_names=["M8", "2M4+2M2"],
        workload_names=["2W1", "2W2"],
        scale=tiny_scale,
    )
    means = class_size_means(res, "ILP", metric="ipc")
    assert "2 THREADS" in means and "HMEAN" in means
    assert "M8" in means["2 THREADS"]
    assert set(means["2 THREADS"]["M8"]) == {"BEST", "HEUR", "WORST"}
    # Two ILP workloads, hmean over both:
    m8_vals = [res["M8"][w].ipc("heur") for w in ("2W1", "2W2")]
    from repro.metrics.stats import harmonic_mean

    assert means["HMEAN"]["M8"]["HEUR"] == pytest.approx(harmonic_mean(m8_vals))


def test_fig_tables_render(tiny_scale):
    res = run_performance_experiment(
        config_names=["M8", "3M4"], workload_names=["2W4"], scale=tiny_scale
    )
    t4 = fig4_table(res, "MEM")
    t5 = fig5_table(res, "MEM")
    assert "Fig. 4" in t4 and "MEM" in t4
    assert "Fig. 5" in t5 and "IPC/mm2" in t5


# -- one simulation per distinct machine ----------------------------------


class _RecordingRunner(BatchRunner):
    """An inline runner that records every bundled run it executes."""

    def __init__(self, **kwargs):
        super().__init__(workers=1, trace_store=False, **kwargs)
        self.executed = []

    def run(self, jobs):
        jobs = list(jobs)
        self.executed.extend(
            run for job in jobs if isinstance(job, ContinuationJob)
            for run in job.runs
        )
        return super().run(jobs)


def _machine_run(run):
    """What a sweep run's result depends on besides its labels (the
    sweep's runs all use the default trace length and seed)."""
    return (machine_key(get_config(run.config), run.mapping), run.benchmarks,
            run.commit_target)


def _requested_runs(plan, scale):
    """Every run the plan asks for, as the sweep would bundle it without
    machine sharing: the screens (or the only run), then one full-length
    run per distinct BEST/HEUR/WORST mapping."""
    bench = plan.workload.benchmarks
    if plan.single_map is not None:
        return [SimJob(plan.config_name, bench, plan.single_map,
                       scale.commit_target)]
    screens = [SimJob(plan.config_name, bench, m, scale.screen_target)
               for m in plan.candidates]
    trio = dict.fromkeys([plan.heur_map, plan.best_map, plan.worst_map])
    return screens + [
        SimJob(plan.config_name, bench, m, scale.commit_target)
        for m in trio
    ]


@pytest.mark.parametrize("configs", [("2M4+2M2", "3M4+2M2"), ("3M4", "4M4")],
                         ids=["hetero", "homogeneous"])
def test_sweep_simulates_each_machine_once(tiny_scale, tmp_path, configs):
    """Configurations that run the same active pipelines share one
    simulation per distinct machine; the table equals the one each pair
    gives on its own and every reported run equals ``run_simulation``,
    and every requested run is still cached under its own SimJob key."""
    workload = get_workload("2W4")
    runner = _RecordingRunner(cache_dir=tmp_path / "cache")
    plans = [_plan_pair(cn, workload, tiny_scale, screening=False)
             for cn in configs]
    _execute_plans(plans, tiny_scale, runner)
    shared = {p.config_name: performance._CACHE[p.key] for p in plans}

    requested = [r for p in plans for r in _requested_runs(p, tiny_scale)]
    executed_keys = [_machine_run(r) for r in runner.executed]
    assert len(executed_keys) == len(set(executed_keys))
    assert set(executed_keys) == {_machine_run(r) for r in requested}
    assert len(runner.executed) < len(requested)  # the configs do share

    for cn in configs:
        clear_result_cache()
        with BatchRunner(workers=1, trace_store=False) as alone:
            own = evaluate_config_workload(cn, workload, tiny_scale,
                                           runner=alone)
        assert shared[cn] == own
        for res in (own.best, own.heur, own.worst):
            assert res == run_simulation(cn, workload.benchmarks, res.mapping,
                                         tiny_scale.commit_target)

    cache = runner.cache
    for run in requested:
        assert cache.path_for(cache.job_key(run)).is_file()
    runner.close()
