"""Content-addressed, multi-tier cache of simulation results.

A :class:`ResultCache` maps a :class:`~repro.runner.batch.SimJob` (or a
:class:`~repro.runner.screening.ScreenJob`) to a JSON payload named by
the SHA-256 of the job's canonical description (its configuration —
including every microarchitectural parameter, so ablation variants never
collide — workload, mapping, commit target, trace length and seed, plus
version salts that invalidate stale entries when either the simulator's
semantics (:data:`ENGINE_VERSION`) or the packed-trace format
(:data:`~repro.trace.packed.PACK_FORMAT_VERSION`) change).

The store is tiered:

* **tier 0** — a bounded in-process LRU of deserialized payloads
  (``REPRO_MEM_CACHE_MB``; ``0``, the default, disables it).  A memory
  hit skips the disk read, the JSON parse and the shard path entirely;
  disk hits promote into it, puts write through it.  Entries are
  size-accounted by their serialized byte length.
* **tier 1** — a pluggable byte store behind the small
  :class:`CacheBackend` protocol (``get_bytes`` / ``put_bytes`` /
  ``scan`` / ``delete``).  The default :class:`FilesystemBackend` keeps
  the exact sharded on-disk layout (and key bytes) of the pre-tier
  cache, so existing caches keep hitting; a real KV store plugs in by
  implementing the same four methods.

Corrupted or truncated entries degrade to a cache miss — the job simply
recomputes and overwrites. Writes are atomic (temp file + rename) so
concurrent workers can share one cache directory.
"""

from __future__ import annotations

import json
import logging
import os
import time
from collections import OrderedDict
from hashlib import sha256
from pathlib import Path
from typing import Iterator, NamedTuple, Optional, Protocol, Tuple

from repro.core.simulation import SimResult
from repro.ioutil import atomic_write_bytes
from repro.trace.packed import PACK_FORMAT_VERSION

__all__ = [
    "CacheBackend",
    "CacheEntry",
    "FilesystemBackend",
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


class CacheEntry(NamedTuple):
    """One stored entry as seen by :meth:`CacheBackend.scan`."""

    key: str
    size: int
    mtime: float


class CacheBackend(Protocol):
    """What tier 1 requires of a byte store.

    The interface is deliberately tiny — content-addressed bytes under
    hex keys — so a real KV service (redis, s3, ...) drops in behind the
    same :class:`ResultCache` without touching any caller.  ``get_bytes``
    returns ``None`` for an absent key and may raise ``OSError`` for an
    entry that exists but cannot be read (surfaced as a corrupt
    fallback, not a crash).
    """

    def get_bytes(self, key: str) -> Optional[bytes]:
        """The stored payload for ``key``, or ``None`` when absent."""

    def put_bytes(self, key: str, payload: bytes) -> None:
        """Durably store ``payload`` under ``key`` (atomic, last-wins)."""

    def scan(self) -> Iterator[CacheEntry]:
        """Iterate every stored entry (for stats and GC)."""

    def delete(self, key: str) -> bool:
        """Remove ``key``; True when an entry was actually removed."""


class FilesystemBackend:
    """The sharded on-disk layout, unchanged bytes and unchanged keys.

    Entries are sharded into 256 subdirectories by the first two hex
    characters of the key (``<dir>/ab/abcdef....json``): a cache shared
    by a worker fleet accumulates tens of thousands of entries, and one
    flat directory makes every ``O_CREAT``/rename/listdir pay a
    linear-scan tax on filesystems without indexed directories.  Reads
    are transparent across layouts — a pre-sharding flat entry still
    hits, and is migrated into its shard on first touch (plus a one-time
    bulk migration at construction), so existing caches upgrade in place
    with zero recomputes.
    """

    def __init__(self, directory: str | os.PathLike) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._migrate_flat_layout()

    def _migrate_flat_layout(self) -> None:
        """Move any flat-layout (pre-sharding) entries into their shards.

        ``os.replace`` is atomic and last-writer-wins, and both layouts'
        writers produce identical bytes for a given key, so racing
        migrators/writers are harmless.  A concurrently-vanished file
        (another migrator won) is skipped.
        """
        for path in self.directory.glob("*.json"):
            key = path.stem
            if len(key) != 64:
                continue  # not one of ours; leave it alone
            shard = self.directory / key[:2]
            shard.mkdir(exist_ok=True)
            try:
                os.replace(path, shard / path.name)
            except FileNotFoundError:
                continue

    def path_for(self, key: str) -> Path:
        return self.directory / key[:2] / f"{key}.json"

    def _flat_path(self, key: str) -> Path:
        """Where the pre-sharding layout kept this key."""
        return self.directory / f"{key}.json"

    def get_bytes(self, key: str) -> Optional[bytes]:
        path = self.path_for(key)
        try:
            return path.read_bytes()
        except FileNotFoundError:
            pass
        # Transparent flat-layout read: migrate the entry into its
        # shard, then serve it from there.
        try:
            flat = self._flat_path(key)
            path.parent.mkdir(exist_ok=True)
            os.replace(flat, path)
            return path.read_bytes()
        except FileNotFoundError:
            return None

    def put_bytes(self, key: str, payload: bytes) -> None:
        path = self.path_for(key)
        path.parent.mkdir(exist_ok=True)
        atomic_write_bytes(path, payload)

    def scan(self) -> Iterator[CacheEntry]:
        """Every entry, flat/sharded duplicates collapsed to one key."""
        seen = set()
        shard_dirs = []
        try:
            with os.scandir(self.directory) as entries:
                for entry in entries:
                    name = entry.name
                    if name.endswith(".json") and entry.is_file(
                        follow_symlinks=False
                    ):
                        seen.add(name)
                        yield self._entry_for(entry)
                    elif len(name) == 2 and entry.is_dir(
                        follow_symlinks=False
                    ):
                        shard_dirs.append(entry.path)
        except FileNotFoundError:
            return
        for shard in shard_dirs:
            try:
                with os.scandir(shard) as entries:
                    for entry in entries:
                        if entry.name.endswith(".json") \
                                and entry.name not in seen:
                            yield self._entry_for(entry)
            except FileNotFoundError:
                continue  # shard vanished mid-walk (concurrent cleanup)

    @staticmethod
    def _entry_for(entry: os.DirEntry) -> CacheEntry:
        try:
            st = entry.stat(follow_symlinks=False)
            size, mtime = st.st_size, st.st_mtime
        except OSError:
            size, mtime = 0, 0.0
        return CacheEntry(entry.name[:-5], size, mtime)

    def delete(self, key: str) -> bool:
        removed = False
        for path in (self.path_for(key), self._flat_path(key)):
            try:
                path.unlink()
                removed = True
            except FileNotFoundError:
                pass
        return removed

    def count(self) -> int:
        """Entry count in one ``os.scandir`` walk, each key counted once.

        One walk collects shard directories as it counts the flat
        stragglers, and a name set collapses a flat/sharded duplicate
        (visible in both layouts mid-migration) to one key.
        """
        seen = set()
        shards = []
        try:
            with os.scandir(self.directory) as entries:
                for entry in entries:
                    name = entry.name
                    if name.endswith(".json") and entry.is_file(
                        follow_symlinks=False
                    ):
                        seen.add(name)
                    elif len(name) == 2 and entry.is_dir(
                        follow_symlinks=False
                    ):
                        shards.append(entry.path)
        except FileNotFoundError:
            return 0
        for shard in shards:
            try:
                with os.scandir(shard) as entries:
                    seen.update(
                        e.name for e in entries if e.name.endswith(".json")
                    )
            except FileNotFoundError:
                continue  # shard vanished mid-walk (concurrent cleanup)
        return len(seen)


def _env_mem_budget_mb() -> float:
    raw = os.environ.get("REPRO_MEM_CACHE_MB")
    if not raw:
        return 0.0
    try:
        return max(0.0, float(raw))
    except ValueError:
        logger.warning("ignoring REPRO_MEM_CACHE_MB=%r: not a number", raw)
        return 0.0


class ResultCache:
    """Tiered result store, keyed by job content hash.

    ``directory`` backs the default :class:`FilesystemBackend`; pass
    ``backend`` to substitute any :class:`CacheBackend`.  The memory
    tier is sized by ``mem_cache_mb`` (``None`` reads
    ``REPRO_MEM_CACHE_MB``, defaulting to 0 = disabled) — keeping the
    bare cache memory-less preserves the strict read-through-disk
    semantics the corruption-recovery machinery (and its tests) relies
    on; long-lived servers opt in.
    """

    def __init__(
        self,
        directory: str | os.PathLike | None = None,
        *,
        backend: Optional[CacheBackend] = None,
        mem_cache_mb: Optional[float] = None,
    ) -> None:
        if backend is None:
            if directory is None:
                raise ValueError("ResultCache needs a directory or a backend")
            backend = FilesystemBackend(directory)
        self.backend = backend
        self.directory = (
            Path(directory)
            if directory is not None
            else getattr(backend, "directory", None)
        )
        self.hits = 0
        self.misses = 0
        #: misses caused by a *corrupt* entry (truncated/garbled payload),
        #: as opposed to a plain absent one — the second line of defense
        #: behind atomic writes, surfaced in the runner's RunReport.
        self.corrupt_fallbacks = 0
        #: per-tier hit split (``hits`` stays the total, as before)
        self.mem_hits = 0
        self.disk_hits = 0
        budget_mb = (
            mem_cache_mb if mem_cache_mb is not None else _env_mem_budget_mb()
        )
        self.mem_budget_bytes = int(max(0.0, budget_mb) * 1024 * 1024)
        #: key -> (payload, serialized size); insertion order = LRU order
        self._mem: "OrderedDict[str, Tuple[dict, int]]" = OrderedDict()
        self._mem_bytes = 0

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

    def _path(self, key: str) -> Path:
        """Filesystem location of ``key`` (filesystem backend only —
        kept for the fault-injection helpers and layout tests)."""
        return self.backend.path_for(key)

    def _flat_path(self, key: str) -> Path:
        """Where the pre-sharding layout kept this key."""
        return self.backend._flat_path(key)

    # -- the memory tier ---------------------------------------------------

    @property
    def mem_enabled(self) -> bool:
        return self.mem_budget_bytes > 0

    def _mem_get(self, key: str) -> Optional[dict]:
        entry = self._mem.get(key)
        if entry is None:
            return None
        self._mem.move_to_end(key)
        return entry[0]

    def _mem_put(self, key: str, payload: dict, size: int) -> None:
        if not self.mem_enabled or size > self.mem_budget_bytes:
            return
        old = self._mem.pop(key, None)
        if old is not None:
            self._mem_bytes -= old[1]
        self._mem[key] = (payload, size)
        self._mem_bytes += size
        while self._mem_bytes > self.mem_budget_bytes:
            _, (_, evicted) = self._mem.popitem(last=False)
            self._mem_bytes -= evicted

    def _mem_drop(self, key: str) -> None:
        entry = self._mem.pop(key, None)
        if entry is not None:
            self._mem_bytes -= entry[1]

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
        if self.mem_enabled:
            payload = self._mem_get(key)
            if payload is not None:
                try:
                    result = job.restore_result(payload)
                except (ValueError, KeyError, TypeError):
                    # A foreign job shape under a colliding key cannot
                    # really happen, but degrade like the disk tier does.
                    self._mem_drop(key)
                else:
                    self.hits += 1
                    self.mem_hits += 1
                    return result
        try:
            raw = self.backend.get_bytes(key)
            if raw is None:
                self.misses += 1
                return None
            payload = json.loads(raw)
            result = job.restore_result(payload)
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
        self._mem_put(key, payload, len(raw))
        self.hits += 1
        self.disk_hits += 1
        return result

    def put(self, job, result) -> None:
        """Store ``result`` under ``job``'s key (write-through: atomic
        tier-1 write, then the memory tier)."""
        key = self.job_key(job)
        data = json.dumps(job.result_payload(result)).encode()
        self.backend.put_bytes(key, data)
        if self.mem_enabled:
            # Re-parse for the memory tier: result_payload may alias
            # live result internals (e.g. the stats dict), and a cached
            # payload must never share mutable state with a caller.
            self._mem_put(key, json.loads(data), len(data))

    def contains(self, job) -> bool:
        """Whether a result for ``job`` is already stored (no decode —
        the distributed work-stealer's done-prefix probe)."""
        key = self.job_key(job)
        if self.mem_enabled and key in self._mem:
            return True
        path = getattr(self.backend, "path_for", None)
        if path is not None:
            return path(key).exists()
        try:
            return self.backend.get_bytes(key) is not None
        except OSError:
            return False

    # -- introspection / GC ------------------------------------------------

    def stats(self) -> dict:
        """Entry count, byte totals and per-tier counters (the
        ``repro cache stats`` CLI payload)."""
        entries = 0
        total_bytes = 0
        for entry in self.backend.scan():
            entries += 1
            total_bytes += entry.size
        return {
            "entries": entries,
            "total_bytes": total_bytes,
            "hits": self.hits,
            "mem_hits": self.mem_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "corrupt_fallbacks": self.corrupt_fallbacks,
            "mem_entries": len(self._mem),
            "mem_bytes": self._mem_bytes,
            "mem_budget_bytes": self.mem_budget_bytes,
        }

    def prune(self, older_than_seconds: float) -> dict:
        """Remove entries last written more than ``older_than_seconds``
        ago (both tiers); returns ``{"removed", "removed_bytes",
        "kept"}``.  Safe against concurrent writers: a pruned entry that
        was being re-put simply wins the race in one direction or the
        other — either outcome is a valid cache state."""
        cutoff = time.time() - max(0.0, older_than_seconds)
        removed = 0
        removed_bytes = 0
        kept = 0
        for entry in list(self.backend.scan()):
            if entry.mtime >= cutoff:
                kept += 1
                continue
            if self.backend.delete(entry.key):
                removed += 1
                removed_bytes += entry.size
                self._mem_drop(entry.key)
            else:
                kept += 1
        return {
            "removed": removed,
            "removed_bytes": removed_bytes,
            "kept": kept,
        }

    def __len__(self) -> int:
        """Tier-1 entry count (the memory tier is a strict subset)."""
        count = getattr(self.backend, "count", None)
        if count is not None:
            return count()
        return sum(1 for _ in self.backend.scan())
