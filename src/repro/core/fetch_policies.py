"""Fetch policies (§4 of the paper).

Every cycle the shared fetch engine ranks the runnable threads and takes
instructions from the best two (global limit: 8 instructions from at most
2 threads). The ranking is the policy:

* **ICOUNT 2.8** (Tullsen et al.) — fewest instructions in the pre-issue
  stages first;
* **FLUSH** (Tullsen & Brown) — ICOUNT ordering plus the flush mechanism:
  a load outstanding longer than the L2 access threshold triggers a flush
  of the thread's younger instructions and stalls its fetch until the
  load returns (the machinery lives in the processor; the policy enables
  it). Used by the paper for the monolithic M8 baseline;
* **L1MCOUNT** (a DCache-Warn variant, used for all multipipeline
  configurations) — fewest in-flight loads first, ties broken toward
  threads on wider pipelines, then ICOUNT;
* **round-robin** — rotation, an ablation baseline only.

A policy object is stateless apart from the processor it inspects;
``sort_key(proc, t)`` returns a tuple, lower = higher priority.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import Processor

__all__ = [
    "FetchPolicy",
    "ICountPolicy",
    "FlushPolicy",
    "L1MCountPolicy",
    "RoundRobinPolicy",
    "make_policy",
]


class FetchPolicy:
    """Interface: rank threads for the shared fetch engine."""

    #: when True the processor arms the FLUSH mechanism (long-latency
    #: loads squash the thread's younger instructions and gate its fetch).
    flushing = False
    name = "abstract"

    def sort_key(self, proc: "Processor", t: int) -> Tuple:
        raise NotImplementedError


class ICountPolicy(FetchPolicy):
    """ICOUNT 2.8: priority to the thread with the fewest instructions in
    decode/rename/queues (its `icount`)."""

    name = "icount"

    def sort_key(self, proc: "Processor", t: int) -> Tuple:
        return (proc.icount[t], t)


class FlushPolicy(ICountPolicy):
    """ICOUNT ordering + L2-miss flush (the paper's baseline policy)."""

    name = "flush"
    flushing = True


class L1MCountPolicy(FetchPolicy):
    """Fewest in-flight loads; ties to wider pipelines; then ICOUNT.

    The paper: "Threads are arranged by the number of inflight loads ...
    threads with fewer number of inflight loads have priority. In case of
    equal number of inflight loads, threads allocated to wider pipelines
    have priority ... in case of pipeline coincidence, the ICOUNT 2.8
    policy is applied."
    """

    name = "l1mcount"

    def sort_key(self, proc: "Processor", t: int) -> Tuple:
        return (
            proc.inflight_loads[t],
            -proc.pipelines[proc.pipe_of[t]].model.width,
            proc.icount[t],
            t,
        )


class RoundRobinPolicy(FetchPolicy):
    """Cycle-rotating thread order (ablation baseline, not in the paper)."""

    name = "roundrobin"

    def sort_key(self, proc: "Processor", t: int) -> Tuple:
        n = proc.num_threads
        return ((t - proc.cycle) % n,)


_POLICIES = {
    "icount": ICountPolicy,
    "flush": FlushPolicy,
    "l1mcount": L1MCountPolicy,
    "roundrobin": RoundRobinPolicy,
}


def make_policy(name: str) -> FetchPolicy:
    """Instantiate a fetch policy by configuration name."""
    try:
        return _POLICIES[name]()
    except KeyError:
        raise KeyError(
            f"unknown fetch policy {name!r}; available: {', '.join(_POLICIES)}"
        ) from None
