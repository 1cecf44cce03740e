"""Crash-consistent, filesystem-backed job queue for remote workers.

One directory is the whole coordination surface between the
:class:`~repro.runner.distributed.executor.DistributedExecutor` front
end and a fleet of ``repro worker`` processes — no broker, no sockets,
nothing that can itself crash.  Every record is a file, every write is
atomic, and every multi-party decision is settled by a filesystem
primitive that the kernel serializes:

``tasks/<task_id>.task``
    One enqueued job (pickled), written via temp-file + ``rename`` so a
    writer killed mid-write leaves only an ignorable ``*.tmp`` orphan,
    never a torn record.  Speculative re-dispatches are full task
    records named ``<base>~s<n>`` — the same payload under a second
    claimable identity (see :func:`base_task_id`).

``leases/<task_id>.lease``
    Ownership of a task.  Claimed with ``O_CREAT | O_EXCL`` — exactly
    one claimant wins, however many workers race — and carrying
    ``{owner, expiry}``.  The owner *renews* the lease (atomic rewrite)
    while it executes; a worker that dies or wedges stops renewing and
    the lease expires.  Reclaiming an expired lease is a ``rename`` to a
    unique tombstone: two racing reclaimers cannot both succeed, because
    the second ``rename`` of a gone file raises.  A lease file whose
    payload is unreadable (claimant died between ``open`` and ``write``)
    is still a valid claim: its age falls back to the file mtime.

``results/<base_id>.result``
    The published outcome.  Publication is *first-wins*: the payload is
    fully written and fsynced to a temp file, then ``os.link``\\ ed to
    the final name — the second publisher (a speculative duplicate, or
    a stale-leased worker racing its reclaimer) atomically loses and
    discards.  Execution is idempotent (jobs are pure functions of
    their cache identity), so whichever copy wins, the bytes are the
    same; first-wins just keeps the accounting exact.

``failures/<base_id>.a<n>``
    One failed execution, its 1-based ordinal claimed with
    ``O_CREAT | O_EXCL`` (the same protocol the fault harness uses), so
    the attempt budget is agreed machine-wide without locks.

``workers/<worker_id>.json``
    Worker registration + heartbeat (atomic rewrite each beat).  The
    front end's grace window and fleet-liveness checks read these.

``stop``
    Fleet shutdown marker: workers exit their poll loop when it
    appears.

``config.json``
    Front-end-published execution context (result-cache and shared
    trace-store directories) so ``repro worker --queue DIR`` needs no
    other flags.
"""

from __future__ import annotations

import json
import logging
import os
import pickle
import time
import uuid
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.ioutil import atomic_write_bytes

__all__ = ["JobQueue", "Lease", "base_task_id"]

logger = logging.getLogger(__name__)

#: Suffix separating a speculative copy from its base task id.
_SPEC_SEP = "~"


def base_task_id(task_id: str) -> str:
    """The identity a task's result is published under: speculative
    copies (``<base>~s<n>``) collapse onto their base task."""
    return task_id.split(_SPEC_SEP, 1)[0]


class Lease:
    """A parsed lease file: who owns a task and until when."""

    __slots__ = ("task_id", "owner", "expiry", "path")

    def __init__(self, task_id: str, owner: str, expiry: float, path: Path):
        self.task_id = task_id
        self.owner = owner
        self.expiry = expiry
        self.path = path

    def expired(self, now: Optional[float] = None) -> bool:
        return (now if now is not None else time.time()) >= self.expiry


class JobQueue:
    """Filesystem-backed task queue (see the module docstring for the
    on-disk protocol).  Safe for any number of concurrent front ends and
    workers on one filesystem; every operation tolerates files vanishing
    underneath it (another party got there first)."""

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.tasks_dir = self.root / "tasks"
        self.leases_dir = self.root / "leases"
        self.results_dir = self.root / "results"
        self.failures_dir = self.root / "failures"
        self.workers_dir = self.root / "workers"
        for d in (self.tasks_dir, self.leases_dir, self.results_dir,
                  self.failures_dir, self.workers_dir):
            d.mkdir(parents=True, exist_ok=True)

    # -- shared execution context -----------------------------------------

    def write_config(self, cache_dir: Optional[str],
                     store_dir: Optional[str]) -> None:
        """Publish the front end's cache/store directories so bare
        ``repro worker --queue DIR`` invocations share them."""
        atomic_write_bytes(
            self.root / "config.json",
            json.dumps(
                {"cache_dir": cache_dir, "store_dir": store_dir}
            ).encode(),
        )

    def read_config(self) -> dict:
        try:
            return json.loads((self.root / "config.json").read_text())
        except (OSError, ValueError):
            return {}

    # -- task records ------------------------------------------------------

    def _task_path(self, task_id: str) -> Path:
        return self.tasks_dir / f"{task_id}.task"

    def enqueue(self, task_id: str, job) -> None:
        """Durably enqueue ``job`` under ``task_id`` (atomic write)."""
        atomic_write_bytes(self._task_path(task_id), pickle.dumps(job))

    def load_task(self, task_id: str):
        """The pickled job, or None when the record is gone or torn."""
        try:
            return pickle.loads(self._task_path(task_id).read_bytes())
        except FileNotFoundError:
            return None
        except Exception as exc:  # torn/corrupt record: not claimable
            logger.warning("unreadable task record %s (%s: %s)",
                           task_id, type(exc).__name__, exc)
            return None

    def task_ids(self) -> List[str]:
        """Enqueued task ids, oldest first (``*.tmp`` orphans of killed
        writers are invisible by construction)."""
        entries = []
        for p in self.tasks_dir.iterdir():
            if not p.name.endswith(".task"):
                continue
            try:
                entries.append((p.stat().st_mtime_ns, p.name[:-5]))
            except FileNotFoundError:
                continue  # consumed while scanning
        entries.sort()
        return [tid for _, tid in entries]

    # -- leases ------------------------------------------------------------

    def _lease_path(self, task_id: str) -> Path:
        return self.leases_dir / f"{task_id}.lease"

    def try_claim(self, task_id: str, owner: str, ttl: float) -> bool:
        """Claim ``task_id`` for ``owner``: exactly one concurrent
        claimant succeeds (``O_CREAT | O_EXCL``)."""
        path = self._lease_path(task_id)
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        try:
            payload = json.dumps(
                {"owner": owner, "expiry": time.time() + ttl}
            ).encode()
            os.write(fd, payload)
            os.fsync(fd)
        finally:
            os.close(fd)
        return True

    def renew(self, task_id: str, owner: str, ttl: float) -> None:
        """Heartbeat: push the lease expiry ``ttl`` seconds out (atomic
        rewrite — readers always see a complete payload)."""
        atomic_write_bytes(
            self._lease_path(task_id),
            json.dumps({"owner": owner, "expiry": time.time() + ttl}).encode(),
        )

    def release(self, task_id: str, owner: Optional[str] = None) -> None:
        """Drop the lease on ``task_id``.  With ``owner`` given, only a
        lease still held by that owner is dropped — a worker returning
        from a long execution or backoff must not unlink a lease that
        was reclaimed and re-claimed by someone else meanwhile.  (The
        check-then-unlink race that remains is harmless: execution is
        idempotent and publishing first-wins.)"""
        if owner is not None:
            lease = self.read_lease(task_id)
            if lease is None or lease.owner not in (owner, "<unknown>"):
                return
        try:
            self._lease_path(task_id).unlink()
        except FileNotFoundError:
            pass

    def read_lease(self, task_id: str,
                   default_ttl: float = 30.0) -> Optional[Lease]:
        """The current lease on ``task_id`` or None.  A lease whose
        payload is unreadable (claimant died between create and write)
        still counts as claimed: its expiry falls back to the file
        mtime + ``default_ttl``."""
        path = self._lease_path(task_id)
        try:
            payload = json.loads(path.read_text())
            return Lease(task_id, str(payload["owner"]),
                         float(payload["expiry"]), path)
        except FileNotFoundError:
            return None
        except (OSError, ValueError, KeyError, TypeError):
            try:
                mtime = path.stat().st_mtime
            except FileNotFoundError:
                return None
            return Lease(task_id, "<unknown>", mtime + default_ttl, path)

    def leases(self, default_ttl: float = 30.0) -> List[Lease]:
        out = []
        for p in self.leases_dir.iterdir():
            if not p.name.endswith(".lease"):
                continue
            lease = self.read_lease(p.name[: -len(".lease")], default_ttl)
            if lease is not None:
                out.append(lease)
        return out

    def reclaim(self, task_id: str) -> bool:
        """Break an (expired) lease; True for the exactly-one winner.

        The lease is renamed to a unique tombstone first: of two racing
        reclaimers, the loser's ``rename`` finds the source gone and
        raises, so precisely one party proceeds to make the task
        claimable again.  Callers check expiry first; the rename is the
        decision, not the policy.

        Tombstones are kept (until batch cleanup) as the durable record
        of reclamation events: workers and the front end race to
        reclaim, so the front end's own wins undercount — the
        :class:`~repro.runner.resilience.RunReport` reads
        :meth:`reclaim_count` instead.
        """
        path = self._lease_path(task_id)
        tombstone = path.with_name(path.name + f".rip-{uuid.uuid4().hex[:8]}")
        try:
            os.rename(path, tombstone)
        except FileNotFoundError:
            return False
        return True

    def reclaim_count(self, prefix: str = "") -> int:
        """How many leases (of one batch, or all) have been reclaimed —
        by anyone: the tombstone is the event record."""
        return sum(
            1
            for p in self.leases_dir.iterdir()
            if ".rip-" in p.name and p.name.startswith(prefix)
        )

    # -- results -----------------------------------------------------------

    def _result_path(self, base_id: str) -> Path:
        return self.results_dir / f"{base_id}.result"

    def publish(self, task_id: str, record: dict) -> bool:
        """Publish an execution's outcome under the task's *base* id.

        First-wins: the payload is fully written + fsynced to a temp
        file, then hard-linked to the final name.  Returns False when
        another execution (a speculative twin, a stale-leased original)
        already published — the bytes would have been identical anyway
        (idempotent jobs), the loser just discards.
        """
        final = self._result_path(base_task_id(task_id))
        tmp = final.with_name(final.name + f".pub-{uuid.uuid4().hex[:8]}.tmp")
        payload = pickle.dumps(record)
        with open(tmp, "wb") as fh:
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        try:
            os.link(tmp, final)
            return True
        except FileExistsError:
            return False
        finally:
            try:
                tmp.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass

    def load_result(self, base_id: str) -> Optional[dict]:
        """The published record for ``base_id`` or None (a torn read is
        impossible: the link only ever exposes a complete payload)."""
        try:
            return pickle.loads(self._result_path(base_id).read_bytes())
        except FileNotFoundError:
            return None

    def has_result(self, base_id: str) -> bool:
        return self._result_path(base_id).exists()

    # -- failures ----------------------------------------------------------

    def record_failure(self, task_id: str, error: str) -> int:
        """Claim the next failure ordinal for the task's base id (the
        ``O_CREAT | O_EXCL`` counter protocol); returns the 1-based
        attempt number this failure was."""
        base = base_task_id(task_id)
        n = 1
        while True:
            marker = self.failures_dir / f"{base}.a{n}"
            try:
                fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                n += 1
                continue
            try:
                os.write(fd, error.encode(errors="replace"))
            finally:
                os.close(fd)
            return n

    def failure_count(self, base_id: str) -> int:
        n = 0
        while (self.failures_dir / f"{base_id}.a{n + 1}").exists():
            n += 1
        return n

    def last_failure(self, base_id: str) -> Optional[str]:
        n = self.failure_count(base_id)
        if not n:
            return None
        try:
            return (self.failures_dir / f"{base_id}.a{n}").read_text(
                errors="replace"
            )
        except OSError:  # pragma: no cover - race with cleanup
            return None

    # -- worker registry ---------------------------------------------------

    def heartbeat_worker(self, worker_id: str) -> None:
        """Register / refresh a worker's liveness record."""
        atomic_write_bytes(
            self.workers_dir / f"{worker_id}.json",
            json.dumps(
                {"worker": worker_id, "pid": os.getpid(), "time": time.time()}
            ).encode(),
        )

    def unregister_worker(self, worker_id: str) -> None:
        try:
            (self.workers_dir / f"{worker_id}.json").unlink()
        except FileNotFoundError:
            pass

    def live_workers(self, ttl: float) -> Dict[str, float]:
        """Workers whose heartbeat is fresher than ``ttl`` seconds."""
        now = time.time()
        out: Dict[str, float] = {}
        for p in self.workers_dir.iterdir():
            if not p.name.endswith(".json"):
                continue
            try:
                payload = json.loads(p.read_text())
                beat = float(payload["time"])
            except (OSError, ValueError, KeyError, TypeError):
                continue
            if now - beat < ttl:
                out[p.name[: -len(".json")]] = beat
        return out

    # -- fleet control -----------------------------------------------------

    @property
    def stop_path(self) -> Path:
        return self.root / "stop"

    def request_stop(self) -> None:
        """Ask the worker fleet to exit after the current task."""
        self.stop_path.touch()

    def stop_requested(self) -> bool:
        return self.stop_path.exists()

    def clear_stop(self) -> None:
        try:
            self.stop_path.unlink()
        except FileNotFoundError:
            pass

    # -- batch GC ----------------------------------------------------------

    def cleanup_batch(self, prefix: str) -> None:
        """Remove every artifact of one batch (tasks, leases, results,
        failure notes) once its results are collected.  Best-effort: a
        straggler republishing later leaves an orphan the next cleanup
        sweeps; ids are batch-unique so orphans can never collide."""
        for d, suffix in (
            (self.tasks_dir, ".task"),
            (self.leases_dir, ".lease"),
            (self.results_dir, ".result"),
            (self.failures_dir, ""),
        ):
            for p in list(d.iterdir()):
                if not p.name.startswith(prefix):
                    continue
                try:
                    p.unlink()
                except (FileNotFoundError, IsADirectoryError):
                    continue

    # -- introspection -----------------------------------------------------

    def pending(self) -> List[Tuple[str, bool]]:
        """(task_id, leased) for every task without a published result."""
        out = []
        for tid in self.task_ids():
            if self.has_result(base_task_id(tid)):
                continue
            out.append((tid, self._lease_path(tid).exists()))
        return out
