"""ResultCache robustness: corruption falls back to recompute, and cache
keys track the packed-trace format version (a format bump must orphan
every cached result, because packed traces feed the simulations)."""

import json
from pathlib import Path

import pytest

from repro.core.config import get_config
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
        again = runner.run_one(sim_job)
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


def test_flat_layout_migrates_at_construction(tmp_path, sim_job):
    """A pre-sharding cache directory upgrades in place: the old flat
    entry is moved into its shard and keeps hitting."""
    cache = ResultCache(tmp_path)
    result = sim_job.execute()
    cache.put(sim_job, result)
    key = ResultCache.job_key(sim_job)
    sharded = tmp_path / key[:2] / f"{key}.json"
    flat = tmp_path / f"{key}.json"
    flat.write_bytes(sharded.read_bytes())  # re-create the old layout
    sharded.unlink()
    (tmp_path / key[:2]).rmdir()

    fresh = ResultCache(tmp_path)
    assert not flat.exists()
    assert sharded.exists()
    assert fresh.get(sim_job) == result
    assert fresh.hits == 1


def test_flat_entry_read_transparently_without_migration_pass(
    tmp_path, sim_job
):
    """A flat entry that appears *after* construction (written by an
    old-layout process sharing the directory) still hits — get() falls
    back to the flat path and migrates the entry on first touch."""
    cache = ResultCache(tmp_path)
    result = sim_job.execute()
    cache.put(sim_job, result)
    key = ResultCache.job_key(sim_job)
    sharded = tmp_path / key[:2] / f"{key}.json"
    flat = tmp_path / f"{key}.json"
    sharded.rename(flat)  # demote to the old layout post-construction

    assert cache.get(sim_job) == result
    assert cache.misses == 0
    assert sharded.exists() and not flat.exists()  # migrated on touch


def test_migration_leaves_foreign_files_alone(tmp_path):
    (tmp_path / "README.json").write_text("{}")
    ResultCache(tmp_path)
    assert (tmp_path / "README.json").exists()


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
