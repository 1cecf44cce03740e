"""Span recorder and the wrappers that time calls into each layer.

The wrappers live here, in the benchmark's own files: nothing under
``src/`` changes.  :func:`install` points every imported ``repro``
module (and the classes named below) at a timing wrapper and returns an
undo function that restores the originals.

A span records its name, start, end (``time.perf_counter``, which reads
``CLOCK_MONOTONIC`` on Linux and so compares across processes), the span
that caused it and the operation id it belongs to.  Spans stay in memory
and are written out at the end:

* the benchmark process keeps them until :meth:`Recorder.collect`;
* a forked pool worker appends its buffer to ``worker-<pid>.jsonl`` each
  time a job span it owns ends (pool workers leave through ``os._exit``,
  so nothing would run at their exit);
* the serve daemon writes ``proc-<pid>.jsonl`` when its bootstrap returns.

Engine stages run once per simulated cycle, so they do not get a span
per call: each stage wrapper adds its time and call count to the
accumulator of the ``engine.run`` span in progress, which stores them as
attributes.
"""

from __future__ import annotations

import contextvars
import dataclasses
import itertools
import json
import os
import pickle
import sys
from time import perf_counter
from typing import Callable, List, NamedTuple, Optional, Tuple

#: (span id, operation id) of the innermost open span in this thread or
#: asyncio task.
_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=(None, None)
)

#: Stage order inside an engine accumulator: times at [i], calls at [i + 5].
STAGES = ("fetch", "rename", "issue", "writeback", "commit")


class Span(NamedTuple):
    pid: int
    n: int
    parent: Optional[tuple]
    op: object
    name: str
    t0: float
    t1: float
    attrs: Optional[dict]

    @property
    def sid(self) -> tuple:
        return (self.pid, self.n)

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


class _Open:
    """An open span (context manager); set ``attrs`` before it closes."""

    __slots__ = ("rec", "name", "op", "attrs", "sid", "parent", "token", "t0")

    def __init__(self, rec: "Recorder", name: str, op=None) -> None:
        self.rec = rec
        self.name = name
        self.op = op
        self.attrs = None

    def __enter__(self) -> "_Open":
        parent, op = _CURRENT.get()
        if self.op is None:
            self.op = op
        self.parent = parent
        self.sid = (self.rec.pid, next(self.rec.ids))
        self.token = _CURRENT.set((self.sid, self.op))
        self.t0 = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        t1 = perf_counter()
        _CURRENT.reset(self.token)
        self.rec.add(
            Span(self.sid[0], self.sid[1], self.parent, self.op, self.name,
                 self.t0, t1, self.attrs)
        )


class Recorder:
    """Per-process span buffer, writing into ``span_dir``."""

    def __init__(self, span_dir: str) -> None:
        self.span_dir = span_dir
        self.spans: List[Span] = []
        self.ids = itertools.count(1)
        self.pid = os.getpid()
        self.forked = False
        #: accumulator of the engine.run span in progress (see STAGES)
        self.stages: Optional[list] = None
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        self.spans = []
        self.pid = os.getpid()
        self.forked = True
        self.stages = None

    def span(self, name: str, op=None) -> _Open:
        return _Open(self, name, op)

    def add(self, span: Span) -> None:
        self.spans.append(span)
        if self.forked and span.name == "job.execute" and (
            span.parent is None or span.parent[0] != self.pid
        ):
            self.dump("worker")

    def dump(self, prefix: str = "proc") -> None:
        """Append the buffered spans to this process's span file."""
        if not self.spans:
            return
        path = os.path.join(self.span_dir, f"{prefix}-{self.pid}.jsonl")
        with open(path, "a") as fh:
            for s in self.spans:
                fh.write(json.dumps(list(s)) + "\n")
        self.spans = []

    def collect(self) -> Tuple[List[Span], List[int]]:
        """This process's spans plus every span file in ``span_dir``, and
        the pids of the pool workers among their writers."""
        out = list(self.spans)
        workers = []
        for name in sorted(os.listdir(self.span_dir)):
            if not name.endswith(".jsonl"):
                continue
            if name.startswith("worker-"):
                workers.append(int(name[len("worker-"):-len(".jsonl")]))
            with open(os.path.join(self.span_dir, name)) as fh:
                for line in fh:
                    pid, n, parent, op, sname, t0, t1, attrs = json.loads(line)
                    out.append(Span(pid, n, tuple(parent) if parent else None,
                                    op, sname, t0, t1, attrs))
        return out, workers


# -- installing the wrappers ---------------------------------------------------


def _rebind(orig, replacement, undo: list) -> None:
    """Point every ``repro`` module global bound to ``orig`` at
    ``replacement`` (modules import these functions by name)."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "repro" or modname.startswith("repro.")):
            continue
        namespace = vars(mod)
        for key, value in list(namespace.items()):
            if value is orig:
                namespace[key] = replacement
                undo.append(lambda ns=namespace, k=key, v=orig: ns.__setitem__(k, v))


def _patch(cls, attr: str, make: Callable, undo: list) -> None:
    """Replace ``cls.attr`` with ``make(original function)``."""
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(make(raw.__func__)))
    else:
        setattr(cls, attr, make(raw))
    undo.append(lambda: setattr(cls, attr, raw))


def _timed(rec: Recorder, name: str) -> Callable:
    def make(fn):
        def wrapper(*args, **kwargs):
            with rec.span(name):
                return fn(*args, **kwargs)
        return wrapper
    return make


def _stage(rec: Recorder, fn, i: int):
    def stage(self, *args, _pc=perf_counter):
        t0 = _pc()
        result = fn(self, *args)
        acc = rec.stages
        if acc is not None:
            acc[i] += _pc() - t0
            acc[i + 5] += 1
        return result
    return stage


def install(rec: Recorder) -> Callable[[], None]:
    """Install every layer wrapper; returns the function that undoes it.

    Must run before any :class:`Processor` is built (stage functions are
    bound at construction) and, for pool workers to inherit the
    wrappers, before the pool forks.
    """
    import repro.cli  # noqa: F401  (binds every name the wrappers replace)
    import repro.core.engine.warm as warm_mod
    import repro.experiments.performance as perf_mod
    import repro.service.protocol as proto
    import repro.trace.profiling as profiling
    import repro.trace.stream as stream
    from repro.core.engine import stages as stages_mod
    from repro.core.engine.engine import Processor
    from repro.runner.batch import BatchRunner
    from repro.runner.cache import ResultCache
    from repro.runner.continuation import ContinuationJob
    from repro.runner.jobs import SimJob
    from repro.runner.resilience import SupervisedExecutor
    from repro.runner.screening import ScreenJob
    from repro.service.server import ReproService
    from repro.trace.packed import PackedTrace, PackedTraceStore
    from repro.trace.synthetic import TraceGenerator

    undo: list = []

    # -- trace -------------------------------------------------------------
    _rebind(stream.trace_for, _timed(rec, "trace.trace_for")(stream.trace_for), undo)
    _rebind(profiling.profile_benchmark,
            _timed(rec, "trace.profile")(profiling.profile_benchmark), undo)
    _patch(TraceGenerator, "generate", _timed(rec, "trace.generate"), undo)
    _patch(TraceGenerator, "generate_junk", _timed(rec, "trace.generate_junk"), undo)
    _patch(PackedTrace, "from_trace", _timed(rec, "trace.pack"), undo)
    _patch(PackedTraceStore, "save", _timed(rec, "trace.save"), undo)

    def store_load(fn):
        def load(self, *args, **kwargs):
            with rec.span("trace.load") as sp:
                packed = fn(self, *args, **kwargs)
                sp.attrs = {"hit": packed is not None}
                return packed
        return load

    _patch(PackedTraceStore, "load", store_load, undo)

    # -- warm --------------------------------------------------------------
    _rebind(warm_mod._stream_warm,
            _timed(rec, "warm.stream")(warm_mod._stream_warm), undo)
    _rebind(warm_mod.ensure_warm_snapshot,
            _timed(rec, "warm.ensure")(warm_mod.ensure_warm_snapshot), undo)
    _patch(Processor, "warm", _timed(rec, "warm.warm"), undo)

    # -- engine ------------------------------------------------------------
    wrapped_sets: dict = {}

    def traced_stage_set_for(config, _orig=stages_mod.stage_set_for):
        base = _orig(config)
        traced = wrapped_sets.get(id(base))
        if traced is None or traced[0] is not base:
            traced = (base, dataclasses.replace(
                base,
                fetch=_stage(rec, base.fetch, 0),
                issue=_stage(rec, base.issue, 2),
                commit=_stage(rec, base.commit, 4),
            ))
            wrapped_sets[id(base)] = traced
        return traced[1]

    _rebind(stages_mod.stage_set_for, traced_stage_set_for, undo)
    _patch(Processor, "_rename", lambda fn: _stage(rec, fn, 1), undo)
    _patch(Processor, "_writeback", lambda fn: _stage(rec, fn, 3), undo)

    def engine_run(fn):
        def run(self, max_cycles=None):
            prev = rec.stages
            acc = rec.stages = [0.0] * 5 + [0] * 5
            c0 = self.cycle
            with rec.span("engine.run") as sp:
                try:
                    return fn(self, max_cycles)
                finally:
                    rec.stages = prev
                    sp.attrs = {"config": self.config.name,
                                "cycles": self.cycle - c0, "stages": acc}
        return run

    _patch(Processor, "run", engine_run, undo)

    # -- experiments and runner ---------------------------------------------
    _rebind(perf_mod.run_performance_experiment,
            _timed(rec, "experiments.sweep")(perf_mod.run_performance_experiment),
            undo)

    def batch_run(fn):
        def run(self, jobs):
            jobs = list(jobs)
            retries = self.report.retries
            with rec.span("runner.run") as sp:
                try:
                    return fn(self, jobs)
                finally:
                    sp.attrs = {"jobs": len(jobs),
                                "retries": self.report.retries - retries}
        return run

    _patch(BatchRunner, "run", batch_run, undo)
    _patch(BatchRunner, "_prepack_traces", _timed(rec, "runner.prepack"), undo)

    def dispatch(fn):
        def run(self, jobs):
            jobs = list(jobs)
            sent = sum(len(pickle.dumps(j, pickle.HIGHEST_PROTOCOL)) for j in jobs)
            with rec.span("runner.dispatch") as sp:
                results = fn(self, jobs)
                sp.attrs = {"workers": self._max_inflight or 1}
            back = len(pickle.dumps(results, pickle.HIGHEST_PROTOCOL))
            sp.attrs["pickle_bytes"] = sent + back
            return results
        return run

    _patch(SupervisedExecutor, "run", dispatch, undo)
    for job_cls in (SimJob, ContinuationJob, ScreenJob):
        _patch(job_cls, "execute", _timed(rec, "job.execute"), undo)

    # -- cache -------------------------------------------------------------
    def cache_get(fn):
        def get(self, job):
            with rec.span("cache.get") as sp:
                mem = self.mem_hits
                result = fn(self, job)
                sp.attrs = {"hit": result is not None, "mem": self.mem_hits > mem}
                return result
        return get

    _patch(ResultCache, "get", cache_get, undo)
    _patch(ResultCache, "put", _timed(rec, "cache.put"), undo)

    # -- service -----------------------------------------------------------
    def submit(fn):
        def wrapper(self, kind, spec):
            coalesced = self.stats["coalesced"]
            with rec.span("service.submit") as sp:
                flight, joined = fn(self, kind, spec)
                sp.attrs = {"frame": flight.source == "frame",
                            "coalesced": self.stats["coalesced"] > coalesced}
                return flight, joined
        return wrapper

    def execute(fn):
        def wrapper(self, flight):
            with rec.span("service.exec") as sp:
                sp.attrs = {"queue_wait": flight.started - flight.created}
                return fn(self, flight)
        return wrapper

    def handle_submit(fn):
        async def wrapper(self, frame, writer, req_id):
            # The client's request id is the operation id, so the
            # benchmark can pair this span with its own latency sample.
            with rec.span("service.handle", op=req_id):
                return await fn(self, frame, writer, req_id)
        return wrapper

    def encode(fn):
        def encode_frame(message):
            if message.get("type") != "result":
                return fn(message)
            with rec.span("service.encode_result"):
                return fn(message)
        return encode_frame

    _patch(ReproService, "submit", submit, undo)
    _patch(ReproService, "_execute", execute, undo)
    _patch(ReproService, "_handle_submit", handle_submit, undo)
    _rebind(proto.request_key, _timed(rec, "service.request_key")(proto.request_key),
            undo)
    _rebind(proto.response_payload,
            _timed(rec, "service.response_payload")(proto.response_payload), undo)
    _rebind(proto.encode_frame, encode(proto.encode_frame), undo)

    def uninstall() -> None:
        while undo:
            undo.pop()()

    return uninstall
