"""Every ``REPRO_*`` environment variable, parsed in one place.

:meth:`Settings.from_env` reads the environment into one frozen, typed
:class:`Settings`; each field names its variable and the parser for its
kind of value.  Unset or empty means the field's default; any other
value that is malformed, non-finite or out of range raises
:class:`ValueError` naming the variable.  The CLI checks its numeric
flags with the same parsers (argparse ``type=``).  A constructor
argument of ``None`` still means "from the environment"; its resolution
goes through here.  The test-only fault-injection protocol
(``REPRO_FAULT_PLAN`` / ``REPRO_FAULT_STATE``) is not a setting:
:mod:`repro.runner.faults` re-reads it in every worker and validates it.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Callable, Mapping, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runner.resilience import RetryPolicy

__all__ = ["KINDS", "Settings", "non_negative_float", "non_negative_int",
           "path", "positive_float", "positive_int"]


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError(text)
    return value


def non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise ValueError(text)
    return value


def positive_float(text: str) -> float:
    value = float(text)
    if not 0.0 < value < math.inf:
        raise ValueError(text)
    return value


def non_negative_float(text: str) -> float:
    value = float(text)
    if not 0.0 <= value < math.inf:
        raise ValueError(text)
    return value


def path(text: str) -> str:
    return text


#: what each parser accepts, as its error message says
KINDS = {
    positive_int: "an integer >= 1",
    non_negative_int: "an integer >= 0",
    positive_float: "a finite number > 0",
    non_negative_float: "a finite number >= 0",
    path: "a path",
}


def _var(name: str, parse: Callable[[str], object], default=None):
    return field(default=default, metadata={"env": name, "parse": parse})


@dataclass(frozen=True)
class Settings:
    """The process's ``REPRO_*`` settings; README's "Settings" table
    documents each variable and its reader."""

    #: pool processes; None = all cores
    workers: Optional[int] = _var("REPRO_WORKERS", positive_int)
    result_cache: Optional[str] = _var("REPRO_RESULT_CACHE", path)
    trace_cache: Optional[str] = _var("REPRO_TRACE_CACHE", path)
    #: `repro serve`'s rendered-frame LRU budget (ReproService)
    mem_cache_mb: float = _var("REPRO_MEM_CACHE_MB", non_negative_float, 64.0)
    sim_scale: Optional[float] = _var("REPRO_SIM_SCALE", positive_float)
    max_mappings: Optional[int] = _var("REPRO_MAX_MAPPINGS", positive_int)
    #: per-job deadline in seconds; None or 0 = no deadline
    job_timeout: Optional[float] = _var("REPRO_JOB_TIMEOUT", non_negative_float)
    max_attempts: int = _var("REPRO_MAX_ATTEMPTS", positive_int, 3)
    retry_backoff: float = _var("REPRO_RETRY_BACKOFF", non_negative_float, 0.1)
    retry_jitter: float = _var("REPRO_RETRY_JITTER", non_negative_float, 0.0)
    max_pool_respawns: int = _var("REPRO_MAX_POOL_RESPAWNS", non_negative_int, 3)

    @classmethod
    def from_env(cls, environ: Mapping[str, str] = os.environ) -> "Settings":
        """Parse every variable of ``environ``; a bad value raises
        :class:`ValueError` naming the variable."""
        values = {}
        for f in fields(cls):
            name, parse = f.metadata["env"], f.metadata["parse"]
            raw = environ.get(name)
            if not raw:
                continue
            try:
                values[f.name] = parse(raw)
            except ValueError:
                raise ValueError(
                    f"{name} must be {KINDS[parse]}, got {raw!r}"
                ) from None
        return cls(**values)

    def retry_policy(self) -> "RetryPolicy":
        """The supervised-dispatch policy these settings describe."""
        from repro.runner.resilience import RetryPolicy

        return RetryPolicy(
            max_attempts=self.max_attempts,
            backoff_base=self.retry_backoff,
            jitter=self.retry_jitter,
            timeout=self.job_timeout,
            max_pool_respawns=self.max_pool_respawns,
        )
