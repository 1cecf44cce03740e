"""JobQueue on-disk protocol: atomicity, exactly-one-winner races, and
crash-mid-write durability.

The queue is the whole coordination surface of distributed execution, so
its invariants are pinned directly — including the two crash windows
atomic writes exist for (a writer killed between temp-file write and
rename, for task records and cache entries) and the reclamation race
(two reclaimers on one expired lease; exactly one may win).
"""

import os
import subprocess
import sys
import time
from pathlib import Path

from repro.runner import ResultCache, SimJob
from repro.runner.distributed import JobQueue
from repro.runner.distributed.queue import base_task_id

JOB = SimJob("M8", ("gzip", "twolf"), (0, 0), 400)

SRC = str(Path(__file__).resolve().parents[2] / "src")


# -- basic protocol ---------------------------------------------------------


def test_enqueue_load_round_trip(tmp_path):
    q = JobQueue(tmp_path)
    q.enqueue("b1-j0000", JOB)
    assert q.task_ids() == ["b1-j0000"]
    assert q.load_task("b1-j0000") == JOB
    assert q.load_task("b1-j9999") is None


def test_torn_task_record_is_unclaimable_not_fatal(tmp_path):
    q = JobQueue(tmp_path)
    (q.tasks_dir / "b1-j0000.task").write_bytes(b"\x80\x04 torn")
    assert q.load_task("b1-j0000") is None
    assert q.task_ids() == ["b1-j0000"]  # visible, just unreadable


def test_tmp_orphans_are_invisible(tmp_path):
    q = JobQueue(tmp_path)
    (q.tasks_dir / "orphan.tmp").write_bytes(b"half a record")
    assert q.task_ids() == []


def test_claim_is_exclusive_and_renewable(tmp_path):
    q = JobQueue(tmp_path)
    q.enqueue("b1-j0000", JOB)
    assert q.try_claim("b1-j0000", "w1", ttl=60.0)
    assert not q.try_claim("b1-j0000", "w2", ttl=60.0)
    lease = q.read_lease("b1-j0000")
    assert lease.owner == "w1" and not lease.expired()
    q.renew("b1-j0000", "w1", ttl=120.0)
    assert q.read_lease("b1-j0000").expiry > lease.expiry - 1.0
    q.release("b1-j0000")
    assert q.read_lease("b1-j0000") is None


def test_release_with_owner_spares_foreign_lease(tmp_path):
    q = JobQueue(tmp_path)
    assert q.try_claim("b1-j0000", "w1", ttl=60.0)
    q.release("b1-j0000", owner="w2")  # not yours: no-op
    assert q.read_lease("b1-j0000").owner == "w1"
    q.release("b1-j0000", owner="w1")
    assert q.read_lease("b1-j0000") is None


def test_unreadable_lease_payload_still_counts_as_claimed(tmp_path):
    """A claimant killed between O_EXCL create and payload write leaves
    an empty lease file: still a claim, expiring ttl past its mtime."""
    q = JobQueue(tmp_path)
    (q.leases_dir / "b1-j0000.lease").touch()
    lease = q.read_lease("b1-j0000", default_ttl=30.0)
    assert lease is not None
    assert lease.owner == "<unknown>"
    assert not lease.expired()
    assert q.read_lease("b1-j0000", default_ttl=0.0).expired()


def test_publish_is_first_wins(tmp_path):
    q = JobQueue(tmp_path)
    assert q.publish("b1-j0000", {"result": "first"})
    assert not q.publish("b1-j0000", {"result": "second"})
    assert q.load_result("b1-j0000") == {"result": "first"}
    # Speculative twins publish under the base id and hit the same gate.
    assert not q.publish("b1-j0000~s1", {"result": "spec"})
    assert q.load_result("b1-j0000") == {"result": "first"}


def test_speculative_ids_collapse_to_base(tmp_path):
    assert base_task_id("b1-j0007~s1") == "b1-j0007"
    assert base_task_id("b1-j0007") == "b1-j0007"


def test_failure_ordinals_are_sequential_and_shared(tmp_path):
    q = JobQueue(tmp_path)
    assert q.record_failure("b1-j0000", "boom 1") == 1
    assert q.record_failure("b1-j0000~s1", "boom 2") == 2  # same budget
    assert q.failure_count("b1-j0000") == 2
    assert q.last_failure("b1-j0000") == "boom 2"
    assert q.failure_count("b1-j0001") == 0
    assert q.last_failure("b1-j0001") is None


def test_worker_registry_liveness_window(tmp_path):
    q = JobQueue(tmp_path)
    q.heartbeat_worker("w1")
    assert "w1" in q.live_workers(ttl=10.0)
    assert q.live_workers(ttl=0.0) == {}
    q.unregister_worker("w1")
    assert q.live_workers(ttl=10.0) == {}


def test_stop_marker_round_trip(tmp_path):
    q = JobQueue(tmp_path)
    assert not q.stop_requested()
    q.request_stop()
    assert q.stop_requested()
    q.clear_stop()
    assert not q.stop_requested()


def test_cleanup_batch_scopes_to_prefix(tmp_path):
    q = JobQueue(tmp_path)
    q.enqueue("b1-j0000", JOB)
    q.enqueue("b2-j0000", JOB)
    q.try_claim("b1-j0000", "w1", ttl=60.0)
    q.publish("b1-j0000", {"result": 1})
    q.record_failure("b1-j0000", "x")
    q.cleanup_batch("b1")
    assert q.task_ids() == ["b2-j0000"]
    assert q.read_lease("b1-j0000") is None
    assert q.load_result("b1-j0000") is None
    assert q.failure_count("b1-j0000") == 0


def test_config_round_trip(tmp_path):
    q = JobQueue(tmp_path)
    assert q.read_config() == {}
    q.write_config("/some/cache", None)
    assert q.read_config() == {"cache_dir": "/some/cache", "store_dir": None}


# -- exactly-one-winner reclamation race ------------------------------------


_RECLAIM_CHILD = """
import sys, time
from repro.runner.distributed import JobQueue

root, go, out = sys.argv[1], sys.argv[2], sys.argv[3]
q = JobQueue(root)
import os
while not os.path.exists(go):   # start barrier: maximize overlap
    time.sleep(0.001)
won = q.reclaim("b1-j0000")
open(out, "w").write("1" if won else "0")
"""


def test_racing_reclaimers_exactly_one_winner(tmp_path):
    """N processes race to reclaim one expired lease; the tombstone
    rename guarantees exactly one winner."""
    q = JobQueue(tmp_path / "q")
    q.enqueue("b1-j0000", JOB)
    assert q.try_claim("b1-j0000", "dead-worker", ttl=0.0)  # born expired

    go = tmp_path / "go"
    outs = [tmp_path / f"out{i}" for i in range(4)]
    env = dict(os.environ, PYTHONPATH=SRC)
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _RECLAIM_CHILD,
             str(tmp_path / "q"), str(go), str(out)],
            env=env,
        )
        for out in outs
    ]
    time.sleep(1.0)  # let every child reach the spin barrier
    go.touch()
    for p in procs:
        assert p.wait(timeout=30) == 0
    wins = [out.read_text() for out in outs]
    assert wins.count("1") == 1, wins
    assert q.read_lease("b1-j0000") is None  # claimable again


# -- crash-mid-write durability ---------------------------------------------

_KILLED_ENQUEUE = """
import os, sys
import repro.ioutil as ioutil

real_replace = os.replace
def die_before_rename(src, dst):
    os._exit(9)           # killed in the crash window: tmp written, no rename
os.replace = die_before_rename

from repro.runner import SimJob
from repro.runner.distributed import JobQueue
q = JobQueue(sys.argv[1])
q.enqueue("b1-j0000", SimJob("M8", ("gzip", "twolf"), (0, 0), 400))
"""


def test_enqueue_killed_between_write_and_rename(tmp_path):
    """A front end killed between temp-file write and rename must leave
    nothing claimable — only an invisible ``*.tmp`` orphan."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", _KILLED_ENQUEUE, str(tmp_path / "q")],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 9
    q = JobQueue(tmp_path / "q")
    assert q.task_ids() == []            # nothing claimable
    assert q.load_task("b1-j0000") is None
    orphans = list(q.tasks_dir.glob("*.tmp"))
    assert len(orphans) == 1             # the crash window's leftover
    # A restarted front end re-enqueues over the orphan cleanly.
    q.enqueue("b1-j0000", JOB)
    assert q.load_task("b1-j0000") == JOB


_KILLED_CACHE_PUT = """
import os, sys

real_replace = os.replace
def die_before_rename(src, dst):
    os._exit(9)
os.replace = die_before_rename

from repro.runner import ResultCache, SimJob
job = SimJob("M8", ("gzip", "twolf"), (0, 0), 400)
cache = ResultCache(sys.argv[1])
cache.put(job, job.execute())
"""


def test_cache_put_killed_between_write_and_rename(tmp_path):
    """A worker killed mid-``ResultCache.put`` leaves a miss, never a
    torn entry: the next reader recomputes and repairs."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", _KILLED_CACHE_PUT, str(tmp_path / "c")],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 9
    cache = ResultCache(tmp_path / "c")
    assert cache.get(JOB) is None
    assert cache.corrupt_fallbacks == 0  # a clean miss, not corruption
    shard = cache.path_for(cache.job_key(JOB)).parent
    assert list(shard.glob("*.tmp"))     # the orphan the rename never ran on
    result = JOB.execute()
    cache.put(JOB, result)               # repair path
    assert cache.get(JOB) == result
