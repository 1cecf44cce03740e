"""Experiment scaling knobs.

The paper simulates 300M-instruction traces; a pure-Python cycle-level
simulator reproduces the same steady-state *rates* from much shorter
windows (the synthetic traces are stationary). `REPRO_SIM_SCALE` scales
the default windows up or down (e.g. ``REPRO_SIM_SCALE=4`` for a longer,
lower-noise run; ``0.25`` for a quick smoke pass).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

__all__ = ["ExperimentScale", "default_scale"]


@dataclass(frozen=True)
class ExperimentScale:
    """Window sizes for the experiment drivers.

    commit_target:
        Instructions the first-finishing thread commits in a *measured*
        run (the paper's 300M, scaled down).
    screen_target:
        Shorter window used to rank candidate mappings for the oracle
        BEST/WORST policies; the argmax/argmin are re-run at full length.
    max_mappings:
        Cap on distinct mappings screened per (config, workload); beyond
        it a deterministic sample (always containing the heuristic's
        mapping) is used, making BEST/WORST sampled oracles.
    """

    commit_target: int = 8_000
    screen_target: int = 1_500
    max_mappings: int = 36

    def scaled(self, factor: float) -> "ExperimentScale":
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return ExperimentScale(
            commit_target=max(500, int(self.commit_target * factor)),
            screen_target=max(300, int(self.screen_target * factor)),
            max_mappings=self.max_mappings,
        )

    @property
    def cache_key(self) -> tuple:
        return (self.commit_target, self.screen_target, self.max_mappings)


def _positive_env(name: str, parse, kind: str):
    """``parse`` of env var ``name``, or None when it is unset or empty.

    Anything else that is not a finite positive ``kind`` is refused with
    a ValueError naming the variable: a zero mapping cap would silently
    collapse every oracle to the heuristic's mapping.
    """
    raw = os.environ.get(name)
    if not raw:
        return None
    try:
        value = parse(raw)
    except ValueError:
        value = math.nan
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be a positive {kind}, got {raw!r}")
    return value


def default_scale() -> ExperimentScale:
    """The default scale, adjusted by the REPRO_SIM_SCALE and
    REPRO_MAX_MAPPINGS env vars."""
    base = ExperimentScale()
    factor = _positive_env("REPRO_SIM_SCALE", float, "number")
    if factor is not None:
        base = base.scaled(factor)
    cap = _positive_env("REPRO_MAX_MAPPINGS", int, "integer")
    if cap is not None:
        base = ExperimentScale(
            commit_target=base.commit_target,
            screen_target=base.screen_target,
            max_mappings=cap,
        )
    return base
