"""Packed trace columns and the content-addressed on-disk trace store.

:class:`PackedTrace` is the one form a :class:`~repro.trace.stream.Trace`
holds its stream in: seven flat int64 columns (one per tuple field
``(op, dest, src1, src2, addr, taken, pc)``), for the correct-path
entries and the wrong-path junk pool alike. Packing is exact
(``list(zip(*columns))`` rebuilds the original tuples), and the columns
serialize as raw buffers:

* :class:`PackedTraceStore` is a content-addressed directory of packed
  traces, keyed by the SHA-256 of the trace identity (benchmark, window
  length, instance) plus :data:`PACK_FORMAT_VERSION`. Writes are atomic
  so concurrent workers can share one store. Generating a window costs
  ~10 ms per 6k instructions; a store lets every BatchRunner worker
  skip it.
* :meth:`PackedTraceStore.load` maps the file with ``mmap`` and exposes
  the columns as zero-copy ``memoryview`` casts — a cold worker gets a
  usable trace for the cost of an ``open``, and the OS page cache shares
  the bytes between every worker on the machine.

The columns double as the input to the vectorized warm-up:
:func:`warm_sequences` precomputes, per structure, exactly the access
sequence the old per-entry warm loop would have issued (d-side addresses,
conditional-branch outcomes, taken-control targets, fetch PCs), so
:meth:`~repro.core.engine.Processor.warm` can stream each structure in
one batched pass — bit-identical state, a fraction of the dispatch cost.
"""

from __future__ import annotations

import json
import mmap
import os
import sys
from array import array
from hashlib import sha256
from pathlib import Path
from typing import NamedTuple, Optional, Sequence, Tuple

from repro.ioutil import atomic_write_bytes
from repro.isa.instruction import TraceEntry
from repro.isa.opcodes import OP_BRANCH, OP_CALL, OP_LOAD, OP_RETURN, OP_STORE

__all__ = [
    "PACK_FORMAT_VERSION",
    "PackedTrace",
    "PackedTraceStore",
    "WarmSequences",
    "empty_columns",
    "extend_columns",
    "warm_sequences",
]

#: Bump when the on-disk packed layout (or the packed semantics) change:
#: store keys embed it, so stale files become unreachable rather than
#: misread, and the simulation result cache salts its keys with it.
PACK_FORMAT_VERSION = 1

NUM_COLUMNS = 7  # (op, dest, src1, src2, addr, taken, pc)

_MAGIC = b"RPKTRC01"
_ITEM = 8  # bytes per column element (int64)


def empty_columns() -> Tuple[array, ...]:
    """Seven empty int64 columns, to fill with :func:`extend_columns`."""
    return tuple(array("q") for _ in range(NUM_COLUMNS))


def extend_columns(columns: Tuple[array, ...],
                   entries: Sequence[TraceEntry]) -> None:
    """Append ``entries`` to ``columns``: one C-speed transpose, exact
    and order-preserving. A generated trace is packed this way chunk by
    chunk as its walker emits it."""
    for col, values in zip(columns, zip(*entries)):
        col.extend(values)


class PackedTrace:
    """One trace as flat int64 columns (entries + wrong-path junk pool).

    ``columns``/``junk_columns`` are any indexable int64 sequences —
    ``array('q')`` when packed in-process, zero-copy ``memoryview`` casts
    over an ``mmap`` when loaded from a :class:`PackedTraceStore`.
    """

    __slots__ = ("name", "length", "junk_length", "columns", "junk_columns",
                 "_buffer")

    def __init__(
        self,
        name: str,
        columns: Tuple[Sequence[int], ...],
        junk_columns: Tuple[Sequence[int], ...],
        buffer=None,
    ) -> None:
        if len(columns) != NUM_COLUMNS or len(junk_columns) != NUM_COLUMNS:
            raise ValueError(f"packed traces carry {NUM_COLUMNS} columns")
        self.name = name
        self.length = len(columns[0])
        self.junk_length = len(junk_columns[0])
        if not self.length:
            raise ValueError("packed trace must contain at least one instruction")
        if not self.junk_length:
            raise ValueError("packed trace needs a wrong-path junk pool")
        self.columns = columns
        self.junk_columns = junk_columns
        self._buffer = buffer  # keeps an mmap (if any) alive

    # -- construction ------------------------------------------------------

    @classmethod
    def from_entries(
        cls,
        name: str,
        entries: Sequence[TraceEntry],
        junk: Sequence[TraceEntry],
    ) -> "PackedTrace":
        columns, junk_columns = empty_columns(), empty_columns()
        extend_columns(columns, entries)
        extend_columns(junk_columns, junk)
        return cls(name, columns, junk_columns)

    @classmethod
    def from_trace(cls, trace) -> "PackedTrace":
        """The columns backing a :class:`~repro.trace.stream.Trace`."""
        return trace.packed

    # -- serialization -----------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize: magic, padded JSON header, then raw column buffers."""
        header = json.dumps(
            {
                "version": PACK_FORMAT_VERSION,
                "name": self.name,
                "length": self.length,
                "junk_length": self.junk_length,
                "byteorder": sys.byteorder,
            }
        ).encode()
        pad = (-(len(_MAGIC) + 4 + len(header))) % _ITEM
        header += b" " * pad
        parts = [_MAGIC, len(header).to_bytes(4, "little"), header]
        for col in self.columns:
            parts.append(_as_bytes(col))
        for col in self.junk_columns:
            parts.append(_as_bytes(col))
        return b"".join(parts)

    @classmethod
    def from_buffer(cls, buf, buffer_owner=None) -> "PackedTrace":
        """Rebuild from :meth:`to_bytes` output — zero-copy when ``buf``
        supports the buffer protocol (e.g. an ``mmap``)."""
        view = memoryview(buf)
        if bytes(view[: len(_MAGIC)]) != _MAGIC:
            raise ValueError("not a packed trace (bad magic)")
        hlen = int.from_bytes(view[len(_MAGIC): len(_MAGIC) + 4], "little")
        hstart = len(_MAGIC) + 4
        meta = json.loads(bytes(view[hstart: hstart + hlen]))
        if meta.get("version") != PACK_FORMAT_VERSION:
            raise ValueError(f"packed trace format {meta.get('version')!r} "
                             f"!= {PACK_FORMAT_VERSION}")
        if meta.get("byteorder") != sys.byteorder:
            raise ValueError("packed trace byte order mismatch")
        length = meta["length"]
        junk_length = meta["junk_length"]
        off = hstart + hlen
        expected = off + (length + junk_length) * NUM_COLUMNS * _ITEM
        if len(view) < expected:
            raise ValueError("packed trace truncated")
        cols = []
        for _ in range(NUM_COLUMNS):
            cols.append(view[off: off + length * _ITEM].cast("q"))
            off += length * _ITEM
        junk_cols = []
        for _ in range(NUM_COLUMNS):
            junk_cols.append(view[off: off + junk_length * _ITEM].cast("q"))
            off += junk_length * _ITEM
        return cls(meta["name"], tuple(cols), tuple(junk_cols),
                   buffer=buffer_owner if buffer_owner is not None else buf)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<PackedTrace {self.name}: {self.length}+{self.junk_length}>"


def _as_bytes(col) -> bytes:
    if isinstance(col, array):
        return col.tobytes()
    return bytes(memoryview(col).cast("B"))


# ---------------------------------------------------------------- warm seqs


class WarmSequences(NamedTuple):
    """Per-structure access sequences for one trace's warm-up pass.

    Each field is exactly the argument stream the structure would have
    seen from the seed per-entry warm loop, in the same order — batching
    them preserves bit-identical post-warm state because the modeled
    structures are independent of one another.
    """

    mem_addrs: list  #: load/store data addresses, program order
    branch_pcs: list  #: conditional-branch PCs, program order
    branch_taken: list  #: their outcomes (bools)
    btb_pcs: list  #: taken control-transfer PCs (branch/call/return)
    btb_targets: list  #: matching targets (PC of the next entry)
    fetch_pcs: list  #: every correct-path PC (I-side warm stream)
    junk_pcs: list  #: wrong-path pool PCs (I-side, resident in L1I/L2)


def warm_sequences(packed: PackedTrace) -> WarmSequences:
    """Extract :class:`WarmSequences` from packed columns: one pass over
    the op/addr/taken/pc columns, keeping each structure's accesses in
    program order."""
    ops = packed.columns[0]
    addrs = packed.columns[4]
    takens = packed.columns[5]
    pcs = packed.columns[6]
    n = packed.length
    mem_addrs: list = []
    branch_pcs: list = []
    branch_taken: list = []
    btb_pcs: list = []
    btb_targets: list = []
    for i in range(n):
        op = ops[i]
        if op == OP_LOAD or op == OP_STORE:
            mem_addrs.append(addrs[i])
            continue
        if op == OP_BRANCH:
            branch_pcs.append(pcs[i])
            branch_taken.append(bool(takens[i]))
            if takens[i]:
                btb_pcs.append(pcs[i])
                btb_targets.append(pcs[(i + 1) % n])
        elif (op == OP_CALL or op == OP_RETURN) and takens[i]:
            btb_pcs.append(pcs[i])
            btb_targets.append(pcs[(i + 1) % n])
    return WarmSequences(
        mem_addrs=mem_addrs,
        branch_pcs=branch_pcs,
        branch_taken=branch_taken,
        btb_pcs=btb_pcs,
        btb_targets=btb_targets,
        fetch_pcs=list(pcs),
        junk_pcs=list(packed.junk_columns[6]),
    )


# -------------------------------------------------------------------- store


class PackedTraceStore:
    """Content-addressed directory of packed traces, mmap-served.

    The key covers the full trace identity — benchmark name, window
    length, instance (the seed namespace) and junk-pool length — plus
    :data:`PACK_FORMAT_VERSION`, so a format bump simply orphans old
    files. ``save`` is atomic (temp file + rename); ``load`` returns
    ``None`` for missing, truncated or otherwise unreadable files, so a
    corrupted store degrades to regeneration, never to a wrong trace.
    """

    def __init__(self, directory: str | os.PathLike,
                 save_on_generate: bool = True) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        #: whether ``trace_for`` should persist freshly generated traces
        self.save_on_generate = save_on_generate
        self.hits = 0
        self.misses = 0

    # -- keying ------------------------------------------------------------

    @staticmethod
    def trace_key(name: str, length: int, instance: int, junk_length: int) -> str:
        desc = json.dumps(
            {
                "format": PACK_FORMAT_VERSION,
                "name": name,
                "length": length,
                "instance": instance,
                "junk_length": junk_length,
            },
            sort_keys=True,
        )
        return sha256(desc.encode()).hexdigest()

    def _path(self, name: str, length: int, instance: int, junk_length: int) -> Path:
        return self.directory / (
            self.trace_key(name, length, instance, junk_length) + ".trace"
        )

    # -- access ------------------------------------------------------------

    def contains(self, name: str, length: int, instance: int,
                 junk_length: int) -> bool:
        return self._path(name, length, instance, junk_length).exists()

    def load(self, name: str, length: int, instance: int,
             junk_length: int) -> Optional[PackedTrace]:
        """mmap the stored trace, or None (missing/corrupt → regenerate)."""
        path = self._path(name, length, instance, junk_length)
        try:
            fd = os.open(path, os.O_RDONLY)
        except OSError:
            self.misses += 1
            return None
        try:
            try:
                mapped = mmap.mmap(fd, 0, access=mmap.ACCESS_READ)
            finally:
                os.close(fd)
            packed = PackedTrace.from_buffer(mapped, buffer_owner=mapped)
            if packed.length != length or packed.name != name:
                raise ValueError("stored trace does not match its key")
        except ValueError:
            self.misses += 1
            return None
        self.hits += 1
        return packed

    def save(self, packed: PackedTrace, name: str, length: int,
             instance: int) -> None:
        """Persist ``packed`` under its identity key (atomic write)."""
        path = self._path(name, length, instance, packed.junk_length)
        if path.exists():
            return
        atomic_write_bytes(path, packed.to_bytes())

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("*.trace"))
