"""Pipeline stages: fetch, rename, issue, writeback and commit.

Each stage is a module-level function taking the
:class:`~repro.core.engine.engine.Processor` as ``self``; the processor
binds them once at construction, so ``run()`` and ``step()`` call
through instance attributes with no per-call dispatch.

Fetch, issue and commit are composed into one frozen :class:`StageSet`
that :func:`stage_set_for` returns for every configuration. A
monolithic machine is the multipipeline one with a single pipeline, so
one implementation of each stage serves every configuration. Rename and
writeback are plain attributes of the processor class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.engine.stages.commit import commit
from repro.core.engine.stages.fetch import fetch, fetch_thread
from repro.core.engine.stages.issue import issue_all, issue_pipeline
from repro.core.engine.stages.rename import rename
from repro.core.engine.stages.writeback import (
    complete,
    do_flush,
    squash_after,
    writeback,
)

__all__ = [
    "StageSet",
    "stage_set_for",
    "commit",
    "fetch",
    "fetch_thread",
    "issue_all",
    "issue_pipeline",
    "rename",
    "writeback",
    "complete",
    "do_flush",
    "squash_after",
]


@dataclass(frozen=True)
class StageSet:
    """The (fetch, issue, commit) stage functions a processor binds."""

    fetch: Callable
    issue: Callable
    commit: Callable


_STAGES = StageSet(fetch=fetch, issue=issue_all, commit=commit)


def stage_set_for(config) -> StageSet:
    """The stage set a processor built from ``config`` binds (the same
    one for every configuration).

    :class:`~repro.core.engine.engine.Processor` imports this function by
    name and calls it in ``__init__``: it is the one place processors get
    these stages from, so the benchmark's traced mode
    (``perfbench/spans.py``) rebinds it to time fetch, issue and commit.
    """
    return _STAGES
