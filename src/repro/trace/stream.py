"""Trace objects consumed by the simulator, with a process-wide cache.

A :class:`Trace` bundles the correct-path entries, a wrong-path junk pool
and the benchmark identity. Fetch wraps modulo the generated length —
the synthetic streams are stationary, so wrapping mimics the paper's
practice of letting slower threads keep executing until the first thread
retires its full instruction budget.

``trace_for`` memoizes traces so that the runs that re-simulate one
workload (every microarchitecture and mapping of the oracle search) share
one object and its decoded blocks. Generation is deterministic in the
key, so every run sees *exactly* the same instruction stream either way
(paired comparison). The memo is a small LRU (:data:`_CACHE_MAX`
traces): a process keeps the traces of the workload it is simulating,
not of every workload it has touched, and a trace it needs again after
eviction comes back from the active store (an mmap) or, without one, is
generated again. :func:`transient_trace` serves one-pass readers such as
the runner's trace-packing prep jobs without entering the memo at all,
and :func:`trace_generator` is the walker behind every window, for
readers (the profile pass) that stream one without building a Trace.

A :class:`Trace` holds its stream in one form: the packed int64 columns
of a :class:`~repro.trace.packed.PackedTrace`. A generated stream is
packed chunk by chunk as the walker emits it
(:meth:`~repro.trace.synthetic.TraceGenerator.generate` with a sink),
so no process ever holds a whole window as tuples; a composite or
hand-built tuple list is packed once when its Trace is built and not
kept. The only other state a Trace carries is the fetch view's decoded
blocks (below). The warm pass
derives its access sequences from the columns
(:func:`~repro.trace.packed.warm_sequences`) each time it streams a
trace and drops them afterwards: the post-warm state is memoized as a
snapshot, so the sequences are not needed again.

A process may additionally activate a :class:`~repro.trace.packed.
PackedTraceStore` via :func:`set_trace_store`: ``trace_for`` then serves
cache misses from the store's mmap-backed packed buffers before falling
back to :class:`~repro.trace.synthetic.TraceGenerator` — this is how
BatchRunner workers skip trace generation entirely. A store-served
Trace reads its columns straight out of the shared buffers (zero copy).

The simulator's fetch engine reads traces through :meth:`Trace.
fetch_view`: per-trace block tables whose :data:`FETCH_BLOCK`-entry
blocks decode lazily from the columns the first time fetch touches
them. A short screening run therefore decodes only the prefix it
actually fetches, while a full-length run amortizes exactly one decode
per block and keeps list-indexed access speed in the hot loop. Decoded
blocks are cached on the Trace, so the oracle sweeps that re-simulate
one workload dozens of times decode each block once per process.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from functools import partial
from typing import List, Optional, Sequence, Tuple

from repro.isa.instruction import TraceEntry
from repro.trace.benchmarks import BenchmarkProfile, get_benchmark
from repro.trace.packed import (
    PackedTrace,
    PackedTraceStore,
    empty_columns,
    extend_columns,
)
from repro.trace.synthetic import StaticProgram, TraceGenerator

__all__ = [
    "FETCH_BLOCK",
    "FETCH_MASK",
    "FETCH_SHIFT",
    "Trace",
    "trace_for",
    "transient_trace",
    "trace_generator",
    "clear_trace_cache",
    "set_trace_store",
    "active_trace_store",
]

#: Fetch-view block geometry: the fetch engine addresses trace entries as
#: ``blocks[index >> FETCH_SHIFT][index & FETCH_MASK]``. 1024 entries per
#: block keeps the decode batch big enough for C-speed ``zip`` transposes
#: while a 150-commit screening window still touches only one block.
FETCH_SHIFT = 10
FETCH_BLOCK = 1 << FETCH_SHIFT
FETCH_MASK = FETCH_BLOCK - 1

def _transpose_block(c, lo: int, hi: int) -> List[TraceEntry]:
    """Decode one block of the 7 int64 column slices into entry tuples.

    A ``zip`` of the column slices transposes the block at C speed. It
    measured faster than a numpy stack + ``tolist`` on CPython 3.11/3.12
    (~150 µs vs ~250 µs per 1024-entry block: ``tolist`` boxes every
    int64, and the tuple build then pays again).
    """
    return list(zip(c[0][lo:hi], c[1][lo:hi], c[2][lo:hi],
                    c[3][lo:hi], c[4][lo:hi], c[5][lo:hi],
                    c[6][lo:hi]))


class Trace:
    """An immutable dynamic instruction stream for one thread.

    Backed by one :class:`~repro.trace.packed.PackedTrace`: generated
    traces pass the columns their walker was packed into, and
    store-served ones their mmap-backed columns, as ``packed=``; tuple
    lists (composite or hand-built streams) are packed once at
    construction. Every read goes through the columns. Besides its
    identity and the columns, a Trace holds only the two block tables
    of its fetch view; it keeps no warm-up sequences.
    """

    __slots__ = ("name", "profile", "length", "junk_length", "packed", "key",
                 "_entry_blocks", "_junk_blocks")

    def __init__(
        self,
        name: str,
        profile: BenchmarkProfile,
        entries: Optional[Sequence[TraceEntry]] = None,
        junk: Optional[Sequence[TraceEntry]] = None,
        *,
        packed: Optional[PackedTrace] = None,
        key: Optional[Tuple[str, int, int]] = None,
    ) -> None:
        if packed is None:
            # PackedTrace's constructor rejects empty entries/junk.
            packed = PackedTrace.from_entries(name, entries or (), junk or ())
        self.name = name
        self.profile = profile
        self.packed = packed
        self.length = packed.length
        self.junk_length = packed.junk_length
        self.key = key  # (name, length, instance) when built by trace_for
        self._entry_blocks: Optional[List[Optional[List[TraceEntry]]]] = None
        self._junk_blocks: Optional[List[Optional[List[TraceEntry]]]] = None

    def next_pc(self, index: int) -> int:
        """PC of the instruction after ``index`` — i.e. the actual target
        of the instruction at ``index`` along the executed path."""
        return self.packed.columns[6][(index + 1) % self.length]

    # -- fetch views -------------------------------------------------------

    def fetch_view(self) -> Tuple[list, list]:
        """``(entry_blocks, junk_blocks)`` block tables for the fetch
        engine: entry ``i`` lives at ``entry_blocks[i >> FETCH_SHIFT]
        [i & FETCH_MASK]``. Slots start ``None`` and fill via
        :meth:`entry_block` / :meth:`junk_block` the first time fetch
        touches them.
        """
        blocks = self._entry_blocks
        if blocks is None:
            blocks = [None] * ((self.length + FETCH_MASK) >> FETCH_SHIFT)
            self._entry_blocks = blocks
            self._junk_blocks = [None] * (
                (self.junk_length + FETCH_MASK) >> FETCH_SHIFT
            )
        return blocks, self._junk_blocks

    def entry_block(self, block: int) -> List[TraceEntry]:
        """Decode (and cache) correct-path block ``block``: an exact
        tuple-for-tuple window of the stream, built by one C-speed
        transpose of the packed int64 column slices."""
        if self._entry_blocks is None:
            self.fetch_view()
        lo = block << FETCH_SHIFT
        blk = _transpose_block(self.packed.columns, lo, lo + FETCH_BLOCK)
        self._entry_blocks[block] = blk
        return blk

    def junk_block(self, block: int) -> List[TraceEntry]:
        """Decode (and cache) wrong-path pool block ``block``."""
        if self._junk_blocks is None:
            self.fetch_view()
        lo = block << FETCH_SHIFT
        blk = _transpose_block(self.packed.junk_columns, lo, lo + FETCH_BLOCK)
        self._junk_blocks[block] = blk
        return blk

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Trace {self.name}: {self.length} instructions>"


#: The process trace memo: an LRU of at most :data:`_CACHE_MAX` traces,
#: keyed by ``(name, length, instance)``.
_CACHE: "OrderedDict[Tuple[str, int, int], Trace]" = OrderedDict()
#: Two trace sets of the widest workload (6 threads): the set a run is
#: simulating plus the one before it, so benchmarks shared by
#: neighbouring workloads of a bundle stay memoized.
_CACHE_MAX = 12
_JUNK_LEN = 2048

#: Process-wide packed store consulted by ``trace_for`` (None = disabled).
_STORE: Optional[PackedTraceStore] = None


def set_trace_store(
    directory: Optional[str | os.PathLike],
    save_on_generate: bool = True,
) -> Optional[PackedTraceStore]:
    """Activate (or with ``None`` deactivate) the process trace store.

    Returns the active store. BatchRunner workers activate the runner's
    store with ``save_on_generate=False`` — the runner packs every trace
    a batch needs before the batch runs, so its jobs only ever read.
    """
    global _STORE
    if directory is None:
        _STORE = None
    else:
        _STORE = PackedTraceStore(directory, save_on_generate=save_on_generate)
    return _STORE


def active_trace_store() -> Optional[PackedTraceStore]:
    return _STORE


def trace_for(name: str, length: int, instance: int = 0) -> Trace:
    """Return (building if needed) the trace for benchmark ``name``.

    ``instance`` differentiates multiple occurrences of the same benchmark
    so, e.g., the two copies of twolf across workloads 2W4 and 2W6 are the
    same stream (paper traces are fixed per benchmark), while a benchmark
    running against itself in a hypothetical workload could use distinct
    instances.

    Lookup order: process memo, then the active packed store (zero-copy
    mmap load), then generation — which optionally persists the packed
    form back to the store for other processes (and for this one, once
    the memo has evicted the trace).
    """
    key = (name, length, instance)
    trace = _CACHE.get(key)
    if trace is not None:
        _CACHE.move_to_end(key)
        return trace
    trace = _build_trace(key, save=True)
    _CACHE[key] = trace
    if len(_CACHE) > _CACHE_MAX:
        _CACHE.popitem(last=False)
    return trace


def transient_trace(name: str, length: int, instance: int = 0) -> Trace:
    """The trace :func:`trace_for` returns, without entering the memo.

    The memo's trace when it holds one; otherwise one loaded from the
    active store or generated (and not saved) for this caller alone, so
    it is freed with the caller's last reference. For one-pass readers
    such as the runner's trace-packing prep jobs.
    """
    key = (name, length, instance)
    trace = _CACHE.get(key)
    if trace is None:
        trace = _build_trace(key, save=False)
    return trace


def trace_generator(name: str, instance: int = 0) -> TraceGenerator:
    """The walker whose stream :func:`trace_for` serves for ``(name,
    length, instance)``: the benchmark's program drawn at seed 0, walked
    at seed ``instance``. Every ``length`` is a prefix of one stream.
    The one place that seed namespace is spelled out, for trace builds
    and for readers that stream a window without building a Trace."""
    return TraceGenerator(StaticProgram(get_benchmark(name), seed=0),
                          seed=instance)


def _build_trace(key: Tuple[str, int, int], save: bool) -> Trace:
    """Load ``key`` from the active store, else generate it (persisting
    the packed form when ``save`` and the store saves on generate)."""
    name, length, instance = key
    profile = get_benchmark(name)
    store = _STORE
    packed = (
        store.load(name, length, instance, _JUNK_LEN)
        if store is not None
        else None
    )
    if packed is not None:
        return Trace(name, profile, packed=packed, key=key)
    # Pack the window chunk by chunk as the walker emits it: no list of
    # the whole window's tuples is ever built.
    gen = trace_generator(name, instance)
    columns, junk_columns = empty_columns(), empty_columns()
    gen.generate(length, partial(extend_columns, columns))
    extend_columns(junk_columns, gen.generate_junk(_JUNK_LEN))
    packed = PackedTrace(name, columns, junk_columns)
    if save and store is not None and store.save_on_generate:
        store.save(packed, name, length, instance)
    return Trace(name, profile, packed=packed, key=key)


def clear_trace_cache() -> None:
    """Drop all memoized traces (tests / memory pressure)."""
    _CACHE.clear()
