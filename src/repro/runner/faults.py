"""Deterministic fault injection for the resilient runner.

Every recovery path in :mod:`repro.runner.resilience` is exercised by
real process-pool tests, not mocks: this module lets a test (or a chaos
CI lane) make a *worker* raise, hang past its timeout, or die outright
(``os._exit``) on the Nth execution of a matching job — deterministically,
however the pool schedules work across processes.

The plan is env-gated so it crosses the ``ProcessPoolExecutor`` boundary
for free:

``REPRO_FAULT_PLAN``
    JSON list of rules (or ``@/path/to/plan.json``). Each rule::

        {"match": "mcf",          # substring of repr(job); "" = any job
         "op": "raise",           # "raise" | "hang" | "die"
         "executions": [1],       # 1-based ordinals of matching
                                  # executions to fire on
         "hang_seconds": 3600.0,  # op == "hang"
         "exit_code": 17}         # op == "die"

    Any other key is an error, so a misspelt field cannot silently
    fall back to its default.

``REPRO_FAULT_STATE``
    Directory for the cross-process execution counters (required when a
    plan is set). Ordinals are claimed with exclusive file creation
    (``O_CREAT | O_EXCL``), so concurrent workers agree on who is the
    Nth execution without locks.

Injection happens only in :func:`maybe_inject_fault`, called by the
worker-side entry point (``repro.runner.batch._execute_job_supervised``)
— never by the parent's inline path, so a degraded (inline) runner is
fault-free by construction, exactly like a real scheduler whose faults
live in the workers.

:func:`corrupt_cache_entry` is the parent-side half of the harness: it
truncates or garbles a chosen :class:`~repro.runner.cache.ResultCache`
entry so tests can drive the corrupt-entry recompute fallback.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import List, Optional, Tuple

__all__ = [
    "ENV_FAULT_PLAN",
    "ENV_FAULT_STATE",
    "FaultRule",
    "InjectedFault",
    "load_fault_plan",
    "maybe_inject_fault",
    "corrupt_cache_entry",
]

ENV_FAULT_PLAN = "REPRO_FAULT_PLAN"
ENV_FAULT_STATE = "REPRO_FAULT_STATE"


class InjectedFault(RuntimeError):
    """The exception an ``op: "raise"`` rule throws inside a worker."""


@dataclass(frozen=True)
class FaultRule:
    """One deterministic fault: fire ``op`` on the Nth execution(s) of a
    job whose ``repr`` contains ``match``."""

    match: str
    op: str
    executions: Tuple[int, ...] = (1,)
    hang_seconds: float = 3600.0
    exit_code: int = 17

    _OPS = ("raise", "hang", "die")

    def __post_init__(self) -> None:
        if self.op not in self._OPS:
            raise ValueError(f"unknown fault op {self.op!r} (want {self._OPS})")

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultRule":
        keys = [f.name for f in fields(cls)]
        unknown = sorted(set(payload) - set(keys))
        if unknown:
            raise ValueError(f"unknown fault rule key(s) {unknown} (want {keys})")
        return cls(
            match=str(payload.get("match", "")),
            op=str(payload["op"]),
            executions=tuple(int(n) for n in payload.get("executions", [1])),
            hang_seconds=float(payload.get("hang_seconds", 3600.0)),
            exit_code=int(payload.get("exit_code", 17)),
        )


def load_fault_plan(env: Optional[str] = None) -> List[FaultRule]:
    """Parse the fault plan from ``REPRO_FAULT_PLAN`` (inline JSON, or
    ``@path`` to a JSON file). No plan means no rules."""
    raw = env if env is not None else os.environ.get(ENV_FAULT_PLAN)
    if not raw:
        return []
    if raw.startswith("@"):
        raw = Path(raw[1:]).read_text()
    return [FaultRule.from_dict(r) for r in json.loads(raw)]


#: Parsed-plan cache keyed on the raw env value. maybe_inject_fault sits
#: on the production worker entry point and runs once per job execution,
#: so the plan is parsed (and an ``@file`` read from disk) once per
#: worker process, not per job — re-reading per job is both a per-job
#: cost and a stale-read hazard if the file changes mid-sweep.
_plan_cache: Tuple[Optional[str], Tuple[FaultRule, ...]] = (None, ())


def _active_plan() -> Tuple[FaultRule, ...]:
    global _plan_cache
    raw = os.environ.get(ENV_FAULT_PLAN)
    if not raw:
        return ()
    key, rules = _plan_cache
    if key != raw:
        rules = tuple(load_fault_plan(raw))
        _plan_cache = (raw, rules)
    return rules


def _claim_execution(state_dir: str, rule_index: int) -> int:
    """Atomically claim this execution's 1-based ordinal for one rule.

    The Nth claimer machine-wide gets N: each candidate ordinal is an
    ``O_CREAT | O_EXCL`` marker file, so exactly one process wins each
    number regardless of pool scheduling — the determinism the harness
    promises.
    """
    n = 1
    while True:
        marker = os.path.join(state_dir, f"rule{rule_index}.exec{n}")
        try:
            fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            n += 1
            continue
        os.close(fd)
        return n


def maybe_inject_fault(job) -> None:
    """Fire the first matching due fault for ``job``, if any.

    Called at the top of the pool worker's execution path.  A no-op
    unless ``REPRO_FAULT_PLAN`` is set (the parsed plan is cached per
    process, keyed on the env value). ``REPRO_FAULT_STATE`` must name a
    directory when a plan is active — failing loudly beats a chaos suite
    that silently injects nothing.
    """
    plan = _active_plan()
    if not plan:
        return
    state_dir = os.environ.get(ENV_FAULT_STATE)
    if not state_dir:
        raise RuntimeError(
            f"{ENV_FAULT_PLAN} is set but {ENV_FAULT_STATE} is not: the "
            "fault harness needs a shared state directory for its "
            "cross-process execution counters"
        )
    os.makedirs(state_dir, exist_ok=True)
    desc = repr(job)
    for rule_index, rule in enumerate(plan):
        if rule.match and rule.match not in desc:
            continue
        ordinal = _claim_execution(state_dir, rule_index)
        if ordinal not in rule.executions:
            continue
        if rule.op == "raise":
            raise InjectedFault(
                f"injected fault: rule {rule_index} execution {ordinal} "
                f"of job matching {rule.match!r}"
            )
        if rule.op == "hang":
            time.sleep(rule.hang_seconds)
            return
        if rule.op == "die":
            os._exit(rule.exit_code)


def corrupt_cache_entry(cache, job, mode: str = "truncate") -> Path:
    """Damage ``job``'s entry in a :class:`~repro.runner.cache.ResultCache`
    (parent-side fault injection for the recompute fallback).

    ``mode="truncate"`` cuts the JSON payload in half — a worker killed
    mid-write before atomic writes landed; ``mode="garbage"`` overwrites
    it with non-JSON bytes. Returns the damaged path; raises
    ``FileNotFoundError`` when no entry exists to damage.
    """
    path = cache.path_for(cache.job_key(job))
    data = path.read_bytes()
    if mode == "truncate":
        path.write_bytes(data[: max(1, len(data) // 2)])
    elif mode == "garbage":
        path.write_bytes(b"\x00not json\xff" + data[:7])
    else:
        raise ValueError(f"unknown corruption mode {mode!r}")
    return path
