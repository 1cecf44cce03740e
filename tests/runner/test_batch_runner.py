"""BatchRunner: parallel determinism, result caching, experiment wiring."""

import json


from repro.core.config import get_config
from repro.core.engine import ensure_warm_snapshot
from repro.core.simulation import run_simulation
from repro.experiments.performance import (
    clear_result_cache,
    fig4_table,
    fig5_table,
    run_performance_experiment,
)
from repro.runner import BatchRunner, ResultCache, SimJob
from repro.trace.benchmarks import BENCHMARK_NAMES
from repro.trace.packed import PackedTrace, PackedTraceStore
from repro.trace.profiling import clear_profile_cache, ensure_profiles, profile_benchmark
from repro.trace.stream import trace_for


def test_simjob_execute_matches_run_simulation(sim_jobs):
    job = sim_jobs[0]
    assert job.execute() == run_simulation(
        job.config, job.benchmarks, job.mapping, job.commit_target
    )


def test_parallel_results_equal_sequential(sim_jobs):
    """The core determinism contract: worker count never changes results."""
    with BatchRunner(workers=1) as seq, BatchRunner(workers=2) as par:
        sequential = seq.run(sim_jobs)
        parallel = par.run(sim_jobs)
    assert parallel == sequential
    assert [r.mapping for r in sequential] == [j.mapping for j in sim_jobs]


def test_runner_preserves_job_order(sim_jobs):
    with BatchRunner(workers=2) as runner:
        results = runner.run(sim_jobs)
    for job, res in zip(sim_jobs, results):
        assert res.mapping == job.mapping
        assert res.benchmarks == job.benchmarks


def test_result_cache_round_trip(tmp_path, sim_jobs):
    cache = ResultCache(tmp_path)
    job = sim_jobs[1]
    assert cache.get(job) is None
    result = job.execute()
    cache.put(job, result)
    assert cache.get(job) == result
    assert len(cache) == 1


def test_result_cache_distinguishes_jobs(tmp_path, sim_jobs):
    cache = ResultCache(tmp_path)
    a, b = sim_jobs[1], sim_jobs[2]  # same workload, different mapping
    assert ResultCache.job_key(a) != ResultCache.job_key(b)
    cache.put(a, a.execute())
    assert cache.get(b) is None


def test_disk_cache_hits_skip_simulation(tmp_path, monkeypatch, sim_jobs):
    with BatchRunner(workers=1, cache_dir=tmp_path) as runner:
        first = runner.run(sim_jobs[:2])
    assert len(list(tmp_path.glob("??/*.json"))) == 2  # sharded layout

    # Second runner over the same directory must serve from disk: poison
    # run_simulation (the only compute path under SimJob.execute) to
    # prove no simulation happens.
    import repro.runner.jobs as jobs_mod

    def boom(*a, **k):  # pragma: no cover - would only run on cache miss
        raise AssertionError("cache miss: simulation re-ran")

    monkeypatch.setattr(jobs_mod, "run_simulation", boom)
    with BatchRunner(workers=1, cache_dir=tmp_path) as runner:
        again = runner.run(sim_jobs[:2])
    assert again == first


def test_cache_payload_is_json(tmp_path, sim_jobs):
    cache = ResultCache(tmp_path)
    job = sim_jobs[0]
    cache.put(job, job.execute())
    path = next(tmp_path.glob("??/*.json"))
    payload = json.loads(path.read_text())
    assert payload["config_name"] == "M8"
    assert payload["cycles"] > 0


def test_seed_namespaces_trace_draw(sim_jobs):
    """seed=N draws an alternative trace window: reproducible, distinct
    from seed 0, and distinguished in the cache key."""
    base = sim_jobs[0]
    seeded = SimJob(base.config, base.benchmarks, base.mapping,
                    base.commit_target, seed=1)
    r0, r1, r1b = base.execute(), seeded.execute(), seeded.execute()
    assert r1 == r1b  # deterministic per seed
    assert r0 != r1  # different draw than the paper's fixed traces
    from repro.runner.cache import ResultCache
    assert ResultCache.job_key(base) != ResultCache.job_key(seeded)


def test_explicit_trace_store_is_populated_and_results_identical(tmp_path, sim_jobs):
    """Parallel runs through a shared packed-trace store must pre-pack
    every needed trace and produce results identical to the storeless
    sequential path."""
    with BatchRunner(workers=1, trace_store=False) as plain:
        reference = plain.run(sim_jobs)
    store_dir = tmp_path / "store"
    with BatchRunner(workers=2, trace_store=store_dir) as runner:
        results = runner.run(sim_jobs)
    assert results == reference
    assert list(store_dir.glob("*.trace"))  # parent pre-packed traces
    assert list(store_dir.glob("*.warm"))  # and warm snapshots


def _store_files(directory):
    return {p.name: p.read_bytes() for p in directory.iterdir()
            if p.suffix in (".trace", ".warm")}


def test_pool_prep_store_matches_inline_and_serial_prep(tmp_path, sim_jobs):
    """Prep jobs on the 2-worker pool, prep jobs run inline and the
    serial parent-side reference (generate, pack, warm in one process)
    leave the same files with the same bytes."""
    pooled = tmp_path / "pooled"
    with BatchRunner(workers=2, trace_store=pooled) as runner:
        runner.run(sim_jobs)
    inline = tmp_path / "inline"
    with BatchRunner(workers=1, trace_store=inline) as runner:
        runner._prepack_traces(sim_jobs)  # one worker: every unit inline
    serial = tmp_path / "serial"
    store = PackedTraceStore(serial)
    for job in sim_jobs:
        for unit in job.trace_manifest():
            traces = [trace_for(*t) for t in unit.triples]
            for triple, trace in zip(unit.triples, traces):
                store.save(PackedTrace.from_trace(trace), *triple)
            memory = get_config(unit.config).params.memory
            ensure_warm_snapshot(str(serial), memory, traces)
    reference = _store_files(serial)
    assert any(name.endswith(".warm") for name in reference)
    assert _store_files(pooled) == reference
    assert _store_files(inline) == reference


def test_prep_jobs_are_not_the_callers_jobs(tmp_path, sim_jobs):
    with BatchRunner(workers=2, trace_store=tmp_path / "store") as runner:
        runner.run(sim_jobs)
        report = runner.report
    assert list((tmp_path / "store").glob("*.warm"))  # prep ran
    assert report.jobs == report.attempts == len(sim_jobs)
    assert report.batches == 1
    assert 0 < report.job_seconds_max <= report.job_seconds_total
    assert not report.eventful


def test_prep_retry_counts_as_an_event(tmp_path, monkeypatch, sim_jobs):
    monkeypatch.setenv("REPRO_FAULT_STATE", str(tmp_path / "fault-state"))
    monkeypatch.setenv("REPRO_FAULT_PLAN", json.dumps(
        [{"match": "_PackTrace", "op": "raise", "executions": [1]}]
    ))
    with BatchRunner(workers=1, trace_store=False) as plain:
        reference = plain.run(sim_jobs)
    with BatchRunner(workers=2, trace_store=tmp_path / "store") as runner:
        assert runner.run(sim_jobs) == reference
        report = runner.report
    assert report.retries == 1 and report.failures == 0
    assert report.jobs == len(sim_jobs) and report.batches == 1


def test_profiles_from_the_pool_equal_serial_profiles(monkeypatch):
    import repro.trace.profiling as profiling

    clear_profile_cache()
    with BatchRunner(workers=2) as runner:
        ensure_profiles(BENCHMARK_NAMES, runner.run)
        assert runner.report.jobs == len(BENCHMARK_NAMES)

    def boom(*args):  # pragma: no cover - would only run on a memo miss
        raise AssertionError("profile recomputed instead of memoized")

    with monkeypatch.context() as m:
        m.setattr(profiling, "trace_generator", boom)
        pooled = [profile_benchmark(b) for b in BENCHMARK_NAMES]
    clear_profile_cache()
    assert pooled == [profile_benchmark(b) for b in BENCHMARK_NAMES]


def test_private_store_cleaned_up_on_close(sim_jobs):
    runner = BatchRunner(workers=2)
    store_dir = runner.store_dir
    assert store_dir is not None
    runner.run(sim_jobs)
    runner.close()
    import os

    assert runner.store_dir is None
    assert not os.path.exists(store_dir)


def test_performance_experiment_identical_across_worker_counts(tiny_scale):
    """Acceptance: run_performance_experiment through BatchRunner yields
    identical figure tables whatever the worker count."""
    configs = ["M8", "2M4+2M2"]
    workloads = ["2W4", "4W6"]

    clear_result_cache()
    seq = run_performance_experiment(configs, workloads, tiny_scale, workers=1)
    clear_result_cache()
    par = run_performance_experiment(configs, workloads, tiny_scale, workers=2)

    for cn in configs:
        assert seq[cn].keys() == par[cn].keys()
        for wn in seq[cn]:
            a, b = seq[cn][wn], par[cn][wn]
            assert (a.best, a.heur, a.worst) == (b.best, b.heur, b.worst)
            assert a.mappings_screened == b.mappings_screened
    for cls in ("ILP", "MEM", "MIX"):
        assert fig4_table(seq, cls) == fig4_table(par, cls)
        assert fig5_table(seq, cls) == fig5_table(par, cls)
    clear_result_cache()


def test_ablation_through_runner_matches_direct(tiny_scale):
    """Ablation drivers batched through BatchRunner equal direct calls."""
    from repro.experiments.ablations import ablation_register_latency

    direct = ablation_register_latency(
        workload_name="2W4", latencies=(1, 2), scale=tiny_scale, workers=1
    )
    parallel = ablation_register_latency(
        workload_name="2W4", latencies=(1, 2), scale=tiny_scale, workers=2
    )
    assert direct == parallel
    assert set(direct) == {1, 2}
