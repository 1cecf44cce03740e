"""Content-addressed on-disk cache of simulation results.

A :class:`ResultCache` maps a :class:`~repro.runner.batch.SimJob` (or a
:class:`~repro.runner.screening.ScreenJob`) to a JSON payload named by
the SHA-256 of the job's canonical description (its configuration —
including every microarchitectural parameter, so ablation variants never
collide — workload, mapping, commit target, trace length and seed, plus
version salts that invalidate stale entries when either the simulator's
semantics (:data:`ENGINE_VERSION`) or the packed-trace format
(:data:`~repro.trace.packed.PACK_FORMAT_VERSION`) change).

Entries live in one sharded directory, ``<dir>/<2 hex>/<key>.json``:
256 subdirectories keyed by the first two hex characters of the key, so
a cache shared by a worker fleet never puts tens of thousands of files
in one directory.  The in-process warm path of ``repro serve`` is the
service's rendered-frame LRU (:mod:`repro.service.server`), not a tier
of this cache.

Corrupted or truncated entries degrade to a cache miss — the job simply
recomputes and overwrites. Writes are atomic (temp file + rename) so
concurrent workers can share one cache directory.
"""

from __future__ import annotations

import json
import logging
import math
import os
import time
from hashlib import sha256
from pathlib import Path
from typing import Iterator, Tuple

from repro.core.simulation import SimResult
from repro.ioutil import atomic_write_bytes
from repro.trace.packed import PACK_FORMAT_VERSION

__all__ = [
    "ResultCache",
    "ENGINE_VERSION",
    "sim_result_payload",
    "sim_result_restore",
]

logger = logging.getLogger(__name__)

#: Bump when the simulation engine's observable behaviour changes: cached
#: results are keyed on it, so stale caches invalidate themselves.
ENGINE_VERSION = 1

#: Attribute the per-job key memo hides under (set via
#: ``object.__setattr__`` — every job kind is a frozen dataclass).
_KEY_MEMO_ATTR = "_repro_key_memo"


def sim_result_payload(result: SimResult) -> dict:
    """The canonical JSON shape of a :class:`SimResult` (single source of
    truth — the screen jobs embed the same shape for folded full runs)."""
    return {
        "config_name": result.config_name,
        "benchmarks": list(result.benchmarks),
        "mapping": list(result.mapping),
        "cycles": result.cycles,
        "committed": list(result.committed),
        "commit_target": result.commit_target,
        "ipc": result.ipc,
        "thread_ipc": list(result.thread_ipc),
        "stats": result.stats,
    }


def sim_result_restore(payload: dict) -> SimResult:
    """Inverse of :func:`sim_result_payload`."""
    return SimResult(
        config_name=payload["config_name"],
        benchmarks=tuple(payload["benchmarks"]),
        mapping=tuple(payload["mapping"]),
        cycles=payload["cycles"],
        committed=tuple(payload["committed"]),
        commit_target=payload["commit_target"],
        ipc=payload["ipc"],
        thread_ipc=tuple(payload["thread_ipc"]),
        stats=dict(payload["stats"]),
    )


class ResultCache:
    """Result store over one sharded directory, keyed by job content hash."""

    #: Always 0 (there is no memory tier); perfbench's traced runs read it.
    mem_hits = 0

    def __init__(self, directory: str | os.PathLike) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        #: misses caused by a *corrupt* entry (truncated/garbled payload),
        #: as opposed to a plain absent one — the second line of defense
        #: behind atomic writes, surfaced in the runner's RunReport.
        self.corrupt_fallbacks = 0

    # -- keying ------------------------------------------------------------

    @staticmethod
    def job_key(job) -> str:
        """Stable content hash of a job's full description.

        Every cacheable job describes itself through the protocol's
        ``cache_key_fields()`` (see :mod:`repro.runner.jobs`) — for a
        :class:`~repro.runner.jobs.SimJob` that is byte-identical to the
        legacy field set, so existing cache entries keep hitting. All
        keys are salted with the engine and packed-trace format
        versions.

        The key is memoized on the job instance (jobs are frozen/
        immutable and every ``get``+``put`` pair used to re-serialize
        and re-hash the full description twice): the memo is validated
        against the salt tuple — engine version, trace format — so
        version monkeypatching recomputes instead of serving a stale
        key.
        """
        salt_state = (ENGINE_VERSION, PACK_FORMAT_VERSION)
        memo = getattr(job, _KEY_MEMO_ATTR, None)
        if memo is not None and memo[0] == salt_state:
            return memo[1]
        fields = job.cache_key_fields()
        salts = {
            "engine": ENGINE_VERSION,
            "trace_format": PACK_FORMAT_VERSION,
        }
        desc = json.dumps({**salts, **fields}, sort_keys=True)
        key = sha256(desc.encode()).hexdigest()
        try:
            object.__setattr__(job, _KEY_MEMO_ATTR, (salt_state, key))
        except (AttributeError, TypeError):
            pass  # slotted/exotic job: correctness without the memo
        return key

    def path_for(self, key: str) -> Path:
        """Where the entry for ``key`` lives: ``<dir>/<key[:2]>/<key>.json``."""
        return self.directory / key[:2] / f"{key}.json"

    # -- access ------------------------------------------------------------

    def get(self, job):
        """Return the cached result for ``job`` or None.

        Any unreadable payload — truncated file, invalid JSON, missing or
        mistyped fields — counts as a miss: the caller recomputes and the
        fresh ``put`` overwrites the damaged entry. An entry that *exists*
        but cannot be decoded additionally counts as a corrupt fallback
        (``corrupt_fallbacks``) and logs what was swallowed.
        """
        key = self.job_key(job)
        try:
            payload = json.loads(self.path_for(key).read_bytes())
            result = job.restore_result(payload)
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError, KeyError, TypeError) as exc:
            # ValueError covers json.JSONDecodeError; OSError covers an
            # unreadable file. The entry was there but unusable: recompute
            # (the fresh put overwrites it) and say why.
            self.misses += 1
            self.corrupt_fallbacks += 1
            logger.warning(
                "corrupt cache entry %s (%s: %s); recomputing",
                key,
                type(exc).__name__,
                exc,
            )
            return None
        self.hits += 1
        return result

    def put(self, job, result) -> None:
        """Store ``result`` under ``job``'s key (atomic, last writer wins)."""
        path = self.path_for(self.job_key(job))
        path.parent.mkdir(exist_ok=True)
        atomic_write_bytes(path, json.dumps(job.result_payload(result)).encode())

    # -- introspection / GC ------------------------------------------------

    def _entries(self) -> Iterator[os.DirEntry]:
        """Every ``<shard>/<key>.json`` entry, in one ``os.scandir`` walk."""
        try:
            with os.scandir(self.directory) as top:
                shards = [
                    e.path
                    for e in top
                    if len(e.name) == 2 and e.is_dir(follow_symlinks=False)
                ]
        except FileNotFoundError:
            return
        for shard in shards:
            try:
                with os.scandir(shard) as entries:
                    yield from [e for e in entries if e.name.endswith(".json")]
            except FileNotFoundError:
                continue  # shard vanished mid-walk (concurrent cleanup)

    @staticmethod
    def _size_mtime(entry: os.DirEntry) -> Tuple[int, float]:
        try:
            st = entry.stat(follow_symlinks=False)
        except OSError:
            return 0, 0.0
        return st.st_size, st.st_mtime

    def stats(self) -> dict:
        """Entry count and byte total (the ``repro cache stats`` payload)."""
        entries = 0
        total_bytes = 0
        for entry in self._entries():
            entries += 1
            total_bytes += self._size_mtime(entry)[0]
        return {"entries": entries, "total_bytes": total_bytes}

    def prune(self, older_than_seconds: float) -> dict:
        """Remove entries last written more than ``older_than_seconds``
        ago; returns ``{"removed", "removed_bytes", "kept"}``.  A negative
        or non-finite age raises :class:`ValueError`.  Safe against
        concurrent writers: a pruned entry that was being re-put simply
        wins the race in one direction or the other — either outcome is
        a valid cache state."""
        if not 0.0 <= older_than_seconds < math.inf:
            raise ValueError(
                "prune age must be a finite number >= 0 seconds, "
                f"got {older_than_seconds!r}"
            )
        cutoff = time.time() - older_than_seconds
        removed = 0
        removed_bytes = 0
        kept = 0
        for entry in self._entries():
            size, mtime = self._size_mtime(entry)
            if mtime >= cutoff:
                kept += 1
                continue
            try:
                os.unlink(entry.path)
            except FileNotFoundError:
                continue  # a concurrent prune got there first
            removed += 1
            removed_bytes += size
        return {
            "removed": removed,
            "removed_bytes": removed_bytes,
            "kept": kept,
        }

    def __len__(self) -> int:
        return sum(1 for _ in self._entries())
