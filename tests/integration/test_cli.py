"""Tests: the command-line interface."""

import pytest

from repro.cli import age_seconds, build_parser, main


def test_run_with_workload(capsys):
    rc = main(["run", "--config", "M8", "--workload", "2W1", "--target", "800"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "IPC" in out and "mm2" in out


def test_run_with_benchmarks(capsys):
    rc = main(["run", "--config", "2M4+2M2", "eon", "mcf", "--target", "600"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "2M4+2M2" in out


def test_run_without_workload_errors(capsys):
    rc = main(["run", "--config", "M8"])
    assert rc == 2


def test_areas(capsys):
    rc = main(["areas"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "-17.00%" in out and "M8" in out


def test_areas_custom(capsys):
    rc = main(["areas", "2M4+2M2"])
    assert rc == 0
    assert "2M4+2M2" in capsys.readouterr().out


def test_profile(capsys):
    rc = main(["profile", "eon", "mcf"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "mcf" in out and "MPKI" in out


def test_workloads(capsys):
    rc = main(["workloads"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "2W4" in out and "6W4" in out


def test_figures_tiny(capsys):
    rc = main(
        ["figures", "--scale", "0.08", "--workloads", "2W1", "2W4", "--quiet"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "Fig. 4" in out and "Fig. 5" in out and "headline" in out


def test_figures_report_json(tmp_path, capsys):
    from repro.experiments.performance import clear_result_cache

    clear_result_cache()  # the in-process memo would leave jobs == 0
    out_path = tmp_path / "reports" / "run.json"
    rc = main(
        ["figures", "--scale", "0.08", "--workloads", "2W1", "--quiet",
         "--report-json", str(out_path)]
    )
    assert rc == 0
    import json

    payload = json.loads(out_path.read_text())
    for key in ("jobs", "attempts", "retries", "timeouts", "pool_respawns",
                "inline_fallbacks", "cache_fallbacks"):
        assert key in payload
    assert payload["jobs"] > 0


@pytest.mark.parametrize("argv", [
    ["figures", "--scale", "0"],
    ["figures", "--scale", "-1"],
    ["figures", "--scale", "nan"],
    ["figures", "--scale", "inf"],
    ["figures", "--jobs", "0"],
    ["figures", "--job-timeout", "nan"],
    ["figures", "--job-timeout", "-1"],
    ["figures", "--max-attempts", "0"],
    ["figures", "--bundles", "2"],
    ["figures", "--queue", "q"],
    ["serve", "--queue", "q"],
    ["serve", "--jobs", "0"],
    ["serve", "--max-queue", "0"],
    ["serve", "--progress-interval", "-1"],
    ["submit", "--timeout", "inf"],
])
def test_bad_numbers_exit_2_naming_the_flag(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2
    assert argv[-2] in capsys.readouterr().err


def test_bad_environment_exits_2_naming_the_variable(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_WORKERS", "0")
    with pytest.raises(SystemExit) as exc:
        main(["areas"])
    assert exc.value.code == 2
    assert "REPRO_WORKERS must be an integer >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["REPRO_RETRY_JITTER", "REPRO_MEM_CACHE_MB"])
def test_retired_variable_exits_2_naming_it(monkeypatch, capsys, name):
    monkeypatch.setenv(name, "1")
    with pytest.raises(SystemExit) as exc:
        main(["areas"])
    assert exc.value.code == 2
    assert f"{name} is not a setting" in capsys.readouterr().err


def test_good_numbers_parse():
    args = build_parser().parse_args(
        ["figures", "--scale", "0.5", "--jobs", "2", "--job-timeout", "0",
         "--max-attempts", "1"]
    )
    assert (args.scale, args.jobs, args.job_timeout, args.max_attempts) == (
        0.5, 2, 0.0, 1)


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["bogus"])


def test_cache_stats_and_prune(tmp_path, capsys, monkeypatch):
    import json
    import os
    import time

    from repro.runner import ResultCache, SimJob

    cache_dir = tmp_path / "cache"
    cache = ResultCache(cache_dir)
    jobs = [SimJob("M8", ("gzip", "twolf"), (0, 0), 300, seed=s)
            for s in range(2)]
    for job in jobs:
        cache.put(job, job.execute())

    rc = main(["cache", "stats", "--cache", str(cache_dir)])
    assert rc == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats.keys() == {"entries", "total_bytes"}
    assert stats["entries"] == 2 and stats["total_bytes"] > 0

    # Age one entry past the threshold, prune via the d-suffix form.
    key = ResultCache.job_key(jobs[0])
    old = cache_dir / key[:2] / f"{key}.json"
    stale = time.time() - 3 * 86400
    os.utime(old, (stale, stale))
    rc = main(["cache", "prune", "--cache", str(cache_dir),
               "--older-than", "1d"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report == {"removed": 1,
                      "removed_bytes": report["removed_bytes"], "kept": 1}
    assert report["removed_bytes"] > 0
    assert not old.exists()

    # REPRO_RESULT_CACHE is the --cache default; no cache at all errors.
    monkeypatch.setenv("REPRO_RESULT_CACHE", str(cache_dir))
    assert main(["cache", "stats"]) == 0
    capsys.readouterr()
    monkeypatch.delenv("REPRO_RESULT_CACHE")
    assert main(["cache", "stats"]) == 2


@pytest.mark.parametrize("text,seconds", [
    ("3600", 3600.0),
    ("45s", 45.0),
    ("15m", 900.0),
    ("12h", 43200.0),
    ("7d", 604800.0),
    (" 1.5D ", 129600.0),
    ("0", 0.0),
])
def test_age_seconds_accepts_suffixed_finite_ages(text, seconds):
    assert age_seconds(text) == seconds


@pytest.mark.parametrize("age", ["nan", "-7d", "inf", "1e400s", "nonsense"])
def test_cache_prune_bad_age_exits_2_and_deletes_nothing(age, tmp_path, capsys):
    """A nan age used to clamp to 0 and a negative one to "now": both
    pruned the whole cache and exited 0."""
    import os
    import time

    from repro.runner import ResultCache, SimJob

    cache = ResultCache(tmp_path / "cache")
    job = SimJob("M8", ("gzip", "twolf"), (0, 0), 300)
    cache.put(job, job.execute())
    key = ResultCache.job_key(job)
    stale = time.time() - 3 * 86400
    os.utime(tmp_path / "cache" / key[:2] / f"{key}.json", (stale, stale))
    with pytest.raises(SystemExit) as exc:
        main(["cache", "prune", "--cache", str(tmp_path / "cache"),
              f"--older-than={age}"])
    assert exc.value.code == 2
    assert "--older-than" in capsys.readouterr().err
    assert len(cache) == 1
