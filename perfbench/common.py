"""Shared pieces of the benchmark: statistics, the run directory, the
operation record and the process checks every workload ends with."""

from __future__ import annotations

import math
import os
import resource
import shutil
import statistics
import tempfile
import uuid
from time import perf_counter
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence


class Op(NamedTuple):
    """One measured operation."""

    kind: str  #: config name, request class or "sweep"
    seconds: float  #: host wall time, as the caller sees it
    ok: bool  #: completed and its output matched the reference
    cycles: int = 0  #: simulated cycles the operation produced (0: none)


class Phase(NamedTuple):
    """The operations of one measured phase and its time window."""

    ops: List[Op]
    t0: float  #: perf_counter at the start of the phase
    t1: float  #: perf_counter once the last operation ended
    useful_cycles: int = 0  #: cycles of the results the workload reports
    client_latency: Optional[Dict[str, float]] = None  #: op id -> seconds

    @property
    def elapsed(self) -> float:
        return self.t1 - self.t0


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def geomean(values: Sequence[float]) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def run_loop(budget: float, min_ops: int, body: Callable[[int], Op]) -> Phase:
    """Call ``body(i)`` for i = 0, 1, ... while less than ``budget``
    seconds have passed (and at least ``min_ops`` times)."""
    ops: List[Op] = []
    t0 = perf_counter()
    while perf_counter() - t0 < budget or len(ops) < min_ops:
        ops.append(body(len(ops)))
    return Phase(ops, t0, perf_counter())


def peak_rss_mb() -> float:
    """Highest resident set of this process or any reaped descendant."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


class RunDir:
    """A private scratch directory under ``.perfbench/`` in the checkout.

    Temporary files of the benchmark and of every process it starts go
    here (``TMPDIR``), so a run writes only inside its checkout. The
    ``token`` marks the environment of every process started from here.
    """

    def __init__(self, root: str) -> None:
        self.token = uuid.uuid4().hex
        self.path = os.path.join(root, ".perfbench", f"run-{os.getpid()}")
        self.tmp = os.path.join(self.path, "tmp")
        os.makedirs(self.tmp, exist_ok=True)
        os.environ["TMPDIR"] = self.tmp
        os.environ["PERFBENCH_RUN"] = self.token
        tempfile.tempdir = None  # re-read TMPDIR

    def sub(self, name: str) -> str:
        path = os.path.join(self.path, name)
        os.makedirs(path, exist_ok=True)
        return path

    def cleanup(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        parent = os.path.dirname(self.path)
        try:
            os.rmdir(parent)
        except OSError:
            pass  # another run's directory is still there


def leftover_processes(token: str) -> List[int]:
    """Processes still alive that this run started: children of this
    process, or any process whose environment carries the run token."""
    me = os.getpid()
    marker = f"PERFBENCH_RUN={token}".encode()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == me:
            continue
        pid = int(entry)
        try:
            with open(f"/proc/{pid}/stat", "rb") as fh:
                stat = fh.read()
            # fields after the parenthesised command: state, ppid, ...
            fields = stat[stat.rindex(b")") + 2:].split()
            if fields[0] == b"Z":
                continue
            if int(fields[1]) == me:
                found.append(pid)
                continue
            with open(f"/proc/{pid}/environ", "rb") as fh:
                if marker in fh.read().split(b"\0"):
                    found.append(pid)
        except (OSError, ValueError, IndexError):
            continue  # exited meanwhile, or not ours to read
    return found
