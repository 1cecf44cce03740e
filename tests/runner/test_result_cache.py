"""ResultCache: corruption falls back to recompute, cache keys track the
packed-trace format version (a format bump must orphan every cached
result, because packed traces feed the simulations) and stay
byte-stable, entries keep the sharded on-disk layout (a writer killed
mid-put leaves a miss, not a torn entry), and stats/prune walk it."""

import json
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core.config import get_config
from repro.memory.hierarchy import MemoryParams
from repro.runner import BatchRunner, ResultCache, SimJob
from repro.runner.screening import ScreenJob
from repro.service.protocol import request_key
from repro.workloads.definitions import WORKLOADS


def _cached_path(tmp_path, job):
    key = ResultCache.job_key(job)
    return tmp_path / key[:2] / f"{key}.json"


def test_truncated_cache_file_recomputes(tmp_path, sim_job):
    cache = ResultCache(tmp_path)
    result = sim_job.execute()
    cache.put(sim_job, result)
    path = _cached_path(tmp_path, sim_job)
    text = path.read_text()
    path.write_text(text[: len(text) // 2])  # truncate mid-JSON
    assert cache.get(sim_job) is None  # miss, not an exception
    # And the standard runner flow recomputes and repairs the entry.
    with BatchRunner(workers=1, cache_dir=tmp_path) as runner:
        (again,) = runner.run([sim_job])
    assert again == result
    assert cache.get(sim_job) == result


def test_garbage_cache_file_recomputes(tmp_path, sim_job):
    cache = ResultCache(tmp_path)
    cache.put(sim_job, sim_job.execute())
    _cached_path(tmp_path, sim_job).write_text("ceci n'est pas du json")
    assert cache.get(sim_job) is None


def test_corrupt_entry_counts_fallback_and_logs(tmp_path, sim_job, caplog):
    """A corrupt entry is a miss AND a counted corrupt fallback with a
    warning naming what was swallowed; a plain absent entry is neither."""
    import logging

    cache = ResultCache(tmp_path)
    assert cache.get(sim_job) is None  # absent: plain miss
    assert cache.corrupt_fallbacks == 0
    cache.put(sim_job, sim_job.execute())
    _cached_path(tmp_path, sim_job).write_text("ceci n'est pas du json")
    with caplog.at_level(logging.WARNING, logger="repro.runner.cache"):
        assert cache.get(sim_job) is None
    assert cache.corrupt_fallbacks == 1
    assert cache.misses == 2
    assert any("corrupt cache entry" in r.message for r in caplog.records)


def test_corrupt_cache_entry_helper_damages_entry(tmp_path, sim_job):
    """The fault harness's parent-side helper produces entries the cache
    treats as corrupt, for both damage modes."""
    import pytest

    from repro.runner.faults import corrupt_cache_entry

    cache = ResultCache(tmp_path)
    with pytest.raises(FileNotFoundError):
        corrupt_cache_entry(cache, sim_job)
    result = sim_job.execute()
    for mode in ("truncate", "garbage"):
        cache.put(sim_job, result)
        assert cache.get(sim_job) == result
        before = cache.corrupt_fallbacks
        path = corrupt_cache_entry(cache, sim_job, mode=mode)
        assert path == _cached_path(tmp_path, sim_job)
        assert cache.get(sim_job) is None
        assert cache.corrupt_fallbacks == before + 1
    with pytest.raises(ValueError):
        cache.put(sim_job, result)
        corrupt_cache_entry(cache, sim_job, mode="arson")


def test_valid_json_with_missing_fields_is_a_miss(tmp_path, sim_job):
    cache = ResultCache(tmp_path)
    cache.put(sim_job, sim_job.execute())
    _cached_path(tmp_path, sim_job).write_text(json.dumps({"cycles": 1}))
    assert cache.get(sim_job) is None


def test_mistyped_payload_is_a_miss(tmp_path, sim_job):
    cache = ResultCache(tmp_path)
    cache.put(sim_job, sim_job.execute())
    _cached_path(tmp_path, sim_job).write_text(json.dumps([1, 2, 3]))
    assert cache.get(sim_job) is None


def test_key_changes_when_pack_format_version_bumps(monkeypatch, sim_job):
    """Packed traces feed every simulation, so the result-cache key must
    incorporate the packing format version."""
    import repro.runner.cache as cache_mod

    before_sim = ResultCache.job_key(sim_job)
    screen = ScreenJob("M8", ("gzip", "twolf"), ((0, 0),), 300)
    before_screen = ResultCache.job_key(screen)
    monkeypatch.setattr(cache_mod, "PACK_FORMAT_VERSION",
                        cache_mod.PACK_FORMAT_VERSION + 1)
    assert ResultCache.job_key(sim_job) != before_sim
    assert ResultCache.job_key(screen) != before_screen


def test_screen_job_cache_round_trip(tmp_path):
    job = ScreenJob("2M4+2M2", ("gzip", "mcf"), ((0, 2), (0, 1), (0, 0)), 300)
    cache = ResultCache(tmp_path)
    assert cache.get(job) is None
    result = job.execute()
    cache.put(job, result)
    assert cache.get(job) == result


def test_entries_land_in_two_hex_shards(tmp_path, sim_job):
    cache = ResultCache(tmp_path)
    cache.put(sim_job, sim_job.execute())
    key = ResultCache.job_key(sim_job)
    assert (tmp_path / key[:2] / f"{key}.json").exists()
    assert not (tmp_path / f"{key}.json").exists()
    assert len(cache) == 1


def test_entry_in_the_existing_layout_hits(tmp_path, sim_job):
    """An entry written by an earlier release — same bytes at
    ``<dir>/<key[:2]>/<key>.json`` — keeps hitting; a stray flat
    ``<dir>/<key>.json`` (the layout before sharding) is a plain miss."""
    result = sim_job.execute()
    key = ResultCache.job_key(sim_job)
    data = json.dumps(sim_job.result_payload(result)).encode()
    flat = tmp_path / "flat"
    flat.mkdir()
    (flat / f"{key}.json").write_bytes(data)
    cache = ResultCache(flat)
    assert cache.get(sim_job) is None
    assert cache.corrupt_fallbacks == 0 and len(cache) == 0

    sharded = tmp_path / "sharded" / key[:2] / f"{key}.json"
    sharded.parent.mkdir(parents=True)
    sharded.write_bytes(data)
    cache = ResultCache(tmp_path / "sharded")
    assert cache.path_for(key) == sharded
    assert cache.get(sim_job) == result
    assert cache.hits == 1 and cache.misses == 0


def test_screen_job_corrupted_entry_recomputes(tmp_path):
    job = ScreenJob("2M4+2M2", ("gzip", "mcf"), ((0, 2), (0, 1)), 300,
                    full_target=600)
    cache = ResultCache(tmp_path)
    result = job.execute()
    cache.put(job, result)
    path = _cached_path(tmp_path, job)
    payload = json.loads(path.read_text())
    del payload["final_scores"]
    path.write_text(json.dumps(payload))
    assert cache.get(job) is None
    cache.put(job, job.execute())
    assert cache.get(job) == result


# -- stats / prune ---------------------------------------------------------


def test_stats_counts_entries_and_bytes(tmp_path, sim_job, sim_jobs):
    cache = ResultCache(tmp_path)
    assert cache.stats() == {"entries": 0, "total_bytes": 0}
    cache.put(sim_job, sim_job.execute())
    cache.put(sim_jobs[1], sim_jobs[1].execute())
    (tmp_path / "README.json").write_text("{}")  # not in a shard: ignored
    files = [_cached_path(tmp_path, j) for j in (sim_job, sim_jobs[1])]
    assert cache.stats() == {
        "entries": 2,
        "total_bytes": sum(f.stat().st_size for f in files),
    }
    assert len(cache) == 2


def test_prune_removes_only_old_entries(tmp_path, sim_job, sim_jobs):
    cache = ResultCache(tmp_path)
    cache.put(sim_job, sim_job.execute())
    cache.put(sim_jobs[1], sim_jobs[1].execute())
    old = _cached_path(tmp_path, sim_job)
    stale = time.time() - 7200
    os.utime(old, (stale, stale))
    report = cache.prune(older_than_seconds=3600)
    assert report["removed"] == 1 and report["kept"] == 1
    assert report["removed_bytes"] > 0
    assert not old.exists()
    assert cache.get(sim_job) is None
    assert cache.get(sim_jobs[1]) is not None


def test_walk_skips_temp_files_and_foreign_entries(tmp_path, sim_job):
    """Only ``<2 hex>/<key>.json`` files are entries: an in-flight atomic
    write's ``.tmp`` file, a foreign directory and a top-level file are
    not counted, and prune leaves them alone."""
    cache = ResultCache(tmp_path)
    cache.put(sim_job, sim_job.execute())
    shard = _cached_path(tmp_path, sim_job).parent
    (shard / "abc123.tmp").write_bytes(b"partial")
    (tmp_path / "notes").mkdir()
    (tmp_path / "notes" / "x.json").write_text("{}")
    (tmp_path / "README.json").write_text("{}")
    assert len(cache) == 1 and cache.stats()["entries"] == 1
    stale = time.time() - 7200
    for path in (shard / "abc123.tmp", tmp_path / "notes" / "x.json",
                 tmp_path / "README.json"):
        os.utime(path, (stale, stale))
    assert cache.prune(3600) == {"removed": 0, "removed_bytes": 0, "kept": 1}
    assert (shard / "abc123.tmp").exists()
    assert (tmp_path / "notes" / "x.json").exists()
    assert (tmp_path / "README.json").exists()


_KILLED_CACHE_PUT = """
import os, sys

def die_before_rename(src, dst):
    os._exit(9)           # killed in the crash window: tmp written, no rename
os.replace = die_before_rename

from repro.runner import ResultCache, SimJob
job = SimJob("M8", ("gzip", "twolf"), (0, 0), 400)
cache = ResultCache(sys.argv[1])
cache.put(job, job.execute())
"""


def test_cache_put_killed_between_write_and_rename(tmp_path):
    """A process killed mid-``ResultCache.put`` leaves a miss, never a
    torn entry: the next reader recomputes and repairs."""
    job = SimJob("M8", ("gzip", "twolf"), (0, 0), 400)
    src = str(Path(__file__).resolve().parents[2] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", _KILLED_CACHE_PUT, str(tmp_path / "c")],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
    )
    assert proc.returncode == 9
    cache = ResultCache(tmp_path / "c")
    assert cache.get(job) is None
    assert cache.corrupt_fallbacks == 0  # a clean miss, not corruption
    shard = cache.path_for(cache.job_key(job)).parent
    assert list(shard.glob("*.tmp"))     # the orphan the rename never ran on
    result = job.execute()
    cache.put(job, result)               # repair path
    assert cache.get(job) == result


def test_get_returns_detached_results(tmp_path, sim_job):
    """Each hit decodes a fresh result: a caller mutating what it got
    back cannot change what the next caller reads."""
    cache = ResultCache(tmp_path)
    result = sim_job.execute()
    cache.put(sim_job, result)
    first = cache.get(sim_job)
    first.stats["poisoned"] = 1
    assert cache.get(sim_job) == result
    assert "poisoned" not in cache.get(sim_job).stats


@pytest.mark.parametrize("age", [-1.0, float("nan"), float("inf")])
def test_prune_rejects_a_negative_or_non_finite_age(tmp_path, sim_job, age):
    cache = ResultCache(tmp_path)
    cache.put(sim_job, sim_job.execute())
    with pytest.raises(ValueError, match="finite number >= 0"):
        cache.prune(age)
    assert len(cache) == 1


# -- the job-key memo ------------------------------------------------------


def test_job_key_memoized_and_byte_stable(sim_job):
    from repro.runner.cache import _KEY_MEMO_ATTR

    if hasattr(sim_job, _KEY_MEMO_ATTR):
        object.__delattr__(sim_job, _KEY_MEMO_ATTR)
    first = ResultCache.job_key(sim_job)
    assert getattr(sim_job, _KEY_MEMO_ATTR)[1] == first
    assert ResultCache.job_key(sim_job) == first
    # The memo must reproduce the from-scratch hash exactly.
    object.__delattr__(sim_job, _KEY_MEMO_ATTR)
    assert ResultCache.job_key(sim_job) == first


def test_job_key_memo_invalidates_on_format_bump(monkeypatch, sim_job):
    import repro.runner.cache as cache_mod

    before = ResultCache.job_key(sim_job)  # memo now warm
    monkeypatch.setattr(
        cache_mod, "PACK_FORMAT_VERSION", cache_mod.PACK_FORMAT_VERSION + 1
    )
    bumped = ResultCache.job_key(sim_job)
    assert bumped != before
    monkeypatch.undo()
    assert ResultCache.job_key(sim_job) == before


def test_cache_and_request_key_bytes_are_pinned():
    """Literal digests: any change to the key derivation (salts, field
    set, serialization) shows up here, and every cached result and
    coalesced request keyed the old way would silently stop hitting."""
    by_name = SimJob("M8", ("gzip", "twolf"), (0, 0), 500)
    by_config = SimJob(
        get_config("2M4+2M2"), ("gzip", "twolf", "bzip2", "mcf"), (0, 0, 1, 1), 500
    )
    assert (
        ResultCache.job_key(by_name)
        == "c6d1d87dba970694eb55ad0c386db0563e361330ae40ee43b9cda8f6d7bbd633"
    )
    assert (
        ResultCache.job_key(by_config)
        == "e1f22aee48bb607d74707f543ce7c10ba15450b3648d63df366cf76c30626995"
    )
    assert (
        request_key("sweep", [by_name, by_config])
        == "aa0ccb6e000af26af1b42bea7e737c958580ef52c8145d1018b8c557f15835dc"
    )
    # A job built with a config object keys on the object's key text, so
    # every field of every config class (and each retired field's literal
    # text) is in these digests: one per shape the ablation sweeps build.
    base = get_config("2M4+2M2")
    four = ("gzip", "twolf", "bzip2", "mcf")
    rf3 = replace(
        base, name="2M4+2M2[rf=3]", params=replace(base.params, reg_latency=3)
    )
    buf8 = replace(
        base,
        name="2M4+2M2[buf=8]",
        pipelines=tuple(replace(p, fetch_buffer=8) for p in base.pipelines),
    )
    ways4 = replace(
        base,
        name="2M4+2M2[l1d_ways=4]",
        params=replace(base.params, memory=MemoryParams(l1d_ways=4)),
    )
    m8_job = SimJob(get_config("M8"), four, (0, 0, 0, 0), 500)
    rf3_job = SimJob(rf3, four, (0, 0, 1, 1), 500)
    buf8_job = SimJob(buf8, four, (0, 0, 1, 1), 500)
    ways4_job = SimJob(ways4, four, (0, 0, 1, 1), 500)
    screen_job = ScreenJob(base, four, ((0, 0, 1, 1), (0, 1, 2, 3)), 400)
    expected = {
        m8_job: "0d938daf0097819460ce8051d5a5bd45cdc3de593ac452c6e01ae4e92d478a9a",
        rf3_job: "77b4390ad1b43668e324d359a3c7c12d93a3337a590f92705871129a6d2dbd03",
        buf8_job: "149f6e78279f19ef8665eba387e0bc42fcb552fc79f4663a3b549c906b8215f8",
        ways4_job: "2b6e1c694078db830dd4de7213105b33eb73666c5d35d04ae2cfaa370aef3291",
        screen_job: "229cba4e8eb0dba200420911c0f1f03f8eff7f5b52fffbeb8233438b6dca525b",
    }
    assert {job: ResultCache.job_key(job) for job in expected} == expected


#: Per-(config, workload) job and request keys, recorded alongside the
#: pinned results of ``tests/core/test_result_pins.py``.
_PINS = json.loads(
    (Path(__file__).resolve().parents[1] / "data" / "engine_pins.json").read_text()
)


@pytest.mark.parametrize(
    "pin", _PINS, ids=[f"{p['config']}-{p['workload']}" for p in _PINS]
)
def test_job_and_request_keys_match_pinned_bytes(pin):
    """Every standard configuration on every workload keys its cached
    result and its request exactly as the recorded engine did."""
    job = SimJob(
        pin["config"],
        WORKLOADS[pin["workload"]].benchmarks,
        tuple(pin["mapping"]),
        pin["target"],
    )
    assert ResultCache.job_key(job) == pin["job_key"]
    assert request_key("sweep", [job]) == pin["request_key"]
