"""Warm-up machinery: vectorized streaming, memoization, snapshot store.

The paper measures steady-state segments; our short windows would be
dominated by compulsory misses and an untrained predictor, so every
simulation warms caches, TLBs and predictors with each thread's window
first. Warming is deterministic in (traces, memory params, thread
count), which makes the post-warm structure state cacheable at three
levels:

* a process-wide memo (``_WARM_CACHE``), a small LRU keyed on the
  traces' content keys;
* an optional on-disk snapshot store (:func:`set_warm_store`), shared
  between BatchRunner workers — the first process to warm a trace set
  persists the snapshot, every other process restores it;
* the BatchRunner parent can precompute snapshots for a whole batch
  (:func:`ensure_warm_snapshot`) so concurrent workers never race to
  compute identical ones.

``warm`` / ``_load_warm_snapshot`` / ``_remember_warm`` are the
Processor-side methods of this machinery;
:class:`~repro.core.engine.engine.Processor` binds them as methods.
"""

from __future__ import annotations

import os
import pickle
from collections import OrderedDict
from hashlib import sha256
from typing import Optional

from repro.branch.unit import BranchUnit
from repro.core.config import config_key_text
from repro.ioutil import atomic_write_bytes
from repro.memory.hierarchy import MemoryHierarchy
from repro.trace.packed import PACK_FORMAT_VERSION, warm_sequences

__all__ = [
    "set_warm_store",
    "clear_warm_cache",
    "ensure_warm_snapshot",
    "warm_snapshot_path",
]

#: Salts on-disk warm-snapshot keys; bump when warm-up semantics or the
#: dumped structure-state shapes change (v2: int-keyed TLB maps).
_WARM_SNAPSHOT_VERSION = 2

#: Memoized post-warm structure state: an LRU of at most
#: :data:`_WARM_CACHE_MAX` snapshots, keyed on (memory params, thread
#: count, trace keys). Traces built by ``trace_for`` key on their content
#: key (``Trace.key``), which fixes the stream, so an entry pins no trace:
#: a trace the trace memo evicted and reloaded still hits. Hand-built
#: traces (tests, composites) have no content key; they key on ``id()``
#: and their entry keeps the traces alive, so an id can never be
#: recycled into a false hit.
_WARM_CACHE: "OrderedDict[tuple, tuple]" = OrderedDict()
#: Two trace sets, like the trace memo: the one being simulated and the
#: one before it. A bundle runs its runs grouped by trace set, and a
#: snapshot needed again after eviction comes back from the warm store.
_WARM_CACHE_MAX = 2

#: Optional on-disk warm-snapshot store (a directory), shared between
#: BatchRunner workers: the first process to warm a (memory params,
#: thread count, trace set) persists the snapshot, every other process
#: restores it instead of streaming the window. Only traces built by
#: ``trace_for`` participate — they carry a content key; hand-built
#: traces (tests, composites) always warm in-process.
_WARM_STORE_DIR: Optional[str] = None


def set_warm_store(directory: Optional[str]) -> None:
    """Activate (None: deactivate) the process-wide warm-snapshot store."""
    global _WARM_STORE_DIR
    _WARM_STORE_DIR = str(directory) if directory is not None else None


def clear_warm_cache() -> None:
    """Drop memoized warm-up snapshots (tests / memory pressure)."""
    _WARM_CACHE.clear()


def _warm_key(memory_params, num_threads: int, traces) -> tuple:
    """``_WARM_CACHE`` key: the traces' content keys when every trace has
    one; otherwise (third field None) their ``id()``s, and the memo entry
    then pins the traces."""
    keys = tuple(getattr(t, "key", None) for t in traces)
    if None in keys:
        return (memory_params, num_threads, None, tuple(id(t) for t in traces))
    return (memory_params, num_threads, keys)


def _stream_warm(mem: MemoryHierarchy, unit: BranchUnit, traces) -> None:
    """Stream every trace's batched per-structure warm sequences into the
    given hierarchy/branch unit (the vectorized warm pass; see
    :func:`warm` for the bit-identity argument).

    The sequences are derived from one trace's packed columns at a time
    and dropped before the next trace's: no Trace keeps them, since the
    resulting state is memoized as a snapshot."""
    dtlb = mem.dtlb
    l1d = mem.l1d
    l2 = mem.l2
    itlb = mem.itlb
    l1i = mem.l1i
    predictor = unit.predictor
    btb = unit.btb
    for t, trace in enumerate(traces):
        seqs = warm_sequences(trace.packed)
        # D-side: DTLB translation stream; L1D probes; L2 sees the L1D
        # misses (in program order, as the per-entry loop did).
        dtlb.access_many(seqs.mem_addrs, t)
        d_misses = l1d.access_many(seqs.mem_addrs, t, collect_misses=True)
        l2.access_many(d_misses, t)
        # Front end: conditional-branch training and taken-transfer
        # target installs.
        predictor.update_many(t, seqs.branch_pcs, seqs.branch_taken)
        btb.update_many(t, seqs.btb_pcs, seqs.btb_targets)
        # I-side: every correct-path PC touches ITLB + L1I.
        itlb.access_many(seqs.fetch_pcs, t)
        l1i.access_many(seqs.fetch_pcs, t)
        # Wrong-path code lives in the basic-block dictionary too; a real
        # front end finds most of it resident (its L1I misses fill from
        # L2, as in the seed loop).
        itlb.access_many(seqs.junk_pcs, t)
        junk_misses = l1i.access_many(seqs.junk_pcs, t, collect_misses=True)
        l2.access_many(junk_misses, t)
        # Free this trace's sequences before the next trace's are built.
        del seqs, d_misses, junk_misses


def _dump_warm_state(mem: MemoryHierarchy, unit: BranchUnit) -> tuple:
    return (
        mem.l1i.dump_state(),
        mem.l1d.dump_state(),
        mem.l2.dump_state(),
        mem.itlb.dump_state(),
        mem.dtlb.dump_state(),
        unit.predictor.dump_state(),
        unit.btb.dump_state(),
    )


def warm_snapshot_path(
    directory: str, memory_params, num_threads: int, trace_keys
) -> str:
    """Deterministic snapshot file for one (params, trace set) identity."""
    desc = (
        f"({_WARM_SNAPSHOT_VERSION!r}, {PACK_FORMAT_VERSION!r}, "
        f"{config_key_text(memory_params)}, {num_threads!r}, "
        f"{tuple(trace_keys)!r})"
    )
    return os.path.join(directory, sha256(desc.encode()).hexdigest() + ".warm")


def ensure_warm_snapshot(directory: str, memory_params, traces) -> bool:
    """Compute and persist the warm snapshot for ``traces`` if absent.

    Used by the BatchRunner parent so concurrent workers load one shared
    snapshot instead of racing to compute identical ones. Returns False
    when any trace lacks a content key (nothing portable to store).
    """
    key = _warm_key(memory_params, len(traces), traces)
    if key[2] is None:
        return False
    path = warm_snapshot_path(directory, *key)
    if os.path.exists(path):
        return True
    mem = MemoryHierarchy(memory_params, max_threads=len(traces))
    unit = BranchUnit(max_threads=len(traces))
    _stream_warm(mem, unit, traces)
    _write_warm_snapshot(path, _dump_warm_state(mem, unit))
    return True


def _read_warm_snapshot(path: str) -> Optional[tuple]:
    """Load a pickled warm snapshot; any corruption degrades to None (the
    caller recomputes and overwrites)."""
    try:
        with open(path, "rb") as fh:
            snap = pickle.load(fh)
    except (
        OSError,
        pickle.UnpicklingError,
        EOFError,
        AttributeError,
        ValueError,
        TypeError,
        IndexError,
    ):
        return None
    if not isinstance(snap, tuple) or len(snap) != 7:
        return None
    return snap


def _write_warm_snapshot(path: str, snap: tuple) -> None:
    """Atomically persist a warm snapshot (concurrent writers race to an
    identical, deterministic payload — last rename wins harmlessly)."""
    try:
        atomic_write_bytes(path, pickle.dumps(snap, pickle.HIGHEST_PROTOCOL))
    except OSError:  # pragma: no cover - store dir vanished
        return


# ------------------------------------------------- Processor-side methods
#
# These take the processor as ``self`` and are bound as methods by the
# Processor class body (keeping the warm machinery in one module).


def warm(self) -> None:
    """Warm caches, TLBs and predictors with each thread's window.

    The paper measures steady-state segments of 300M instructions; our
    short windows would otherwise be dominated by compulsory misses
    and an untrained perceptron. Statistics accumulated here are reset
    by the caller via fresh counters (see ``run_simulation``).

    The warm pass is *vectorized*: instead of dispatching on every
    trace entry, each structure consumes its access sequence in one
    batched call. The sequences are derived from each trace's packed
    columns (:func:`~repro.trace.packed.warm_sequences`) for this pass
    only and dropped with it. The modeled structures are mutually
    independent and every structure sees exactly the per-entry loop's
    access subsequence in the same order, so the post-warm state is
    bit-identical to the seed implementation — the golden-equivalence
    suite pins this.

    Warming is deterministic in (traces, memory params, thread count)
    when the processor is fresh, so the post-warm structure state is
    memoized process-wide (a small LRU, see ``_WARM_CACHE``): the oracle
    mapping sweeps re-simulate the same workload dozens of times and
    every run after the first restores the snapshot (bit-identical,
    including warm-time statistics) instead of streaming the window
    again. With a warm store active (:func:`set_warm_store`), snapshots
    are additionally shared across processes through the store
    directory, which also serves a snapshot the memo has evicted.
    """
    mem = self.mem
    unit = self.branch_unit
    fresh = not self._warmed and self.cycle == 0 and self.seq == 0
    key = None
    disk_path = None
    if fresh:
        key = _warm_key(self.params.memory, self.num_threads, self.traces)
        cached = _WARM_CACHE.get(key)
        if cached is not None:
            _WARM_CACHE.move_to_end(key)
            self._load_warm_snapshot(cached[1:])
            self._warmed = True
            return
        disk_path = _warm_store_path(key)
        if disk_path is not None:
            snap = _read_warm_snapshot(disk_path)
            if snap is not None:
                self._load_warm_snapshot(snap)
                self._remember_warm(key, snap)
                self._warmed = True
                return
    self._warmed = True
    _stream_warm(mem, unit, self.traces)
    if fresh:
        snap = _dump_warm_state(mem, unit)
        self._remember_warm(key, snap)
        if disk_path is not None:
            _write_warm_snapshot(disk_path, snap)


def _load_warm_snapshot(self, snap: tuple) -> None:
    """Restore the 7 structure states of a warm snapshot."""
    l1i, l1d, l2, itlb, dtlb, pred, btb = snap
    mem = self.mem
    mem.l1i.load_state(l1i)
    mem.l1d.load_state(l1d)
    mem.l2.load_state(l2)
    mem.itlb.load_state(itlb)
    mem.dtlb.load_state(dtlb)
    self.branch_unit.predictor.load_state(pred)
    self.branch_unit.btb.load_state(btb)


def _remember_warm(self, key: tuple, snap: tuple) -> None:
    pinned = tuple(self.traces) if key[2] is None else ()
    _WARM_CACHE[key] = (pinned,) + snap
    _WARM_CACHE.move_to_end(key)
    if len(_WARM_CACHE) > _WARM_CACHE_MAX:
        _WARM_CACHE.popitem(last=False)


def _warm_store_path(key: tuple) -> Optional[str]:
    """Snapshot file for a ``_WARM_CACHE`` key, or None when the store
    is off or any trace lacks a content key."""
    directory = _WARM_STORE_DIR
    if directory is None or key[2] is None:
        return None
    memory_params, num_threads, trace_keys = key
    return warm_snapshot_path(directory, memory_params, num_threads, trace_keys)
