"""Experiment scaling knobs.

The paper simulates 300M-instruction traces; a pure-Python cycle-level
simulator reproduces the same steady-state *rates* from much shorter
windows (the synthetic traces are stationary). `REPRO_SIM_SCALE` scales
the default windows up or down (e.g. ``REPRO_SIM_SCALE=4`` for a longer,
lower-noise run; ``0.25`` for a quick smoke pass).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.settings import Settings

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


def default_scale() -> ExperimentScale:
    """The default scale, adjusted by the REPRO_SIM_SCALE and
    REPRO_MAX_MAPPINGS env vars."""
    settings = Settings.from_env()
    base = ExperimentScale()
    if settings.sim_scale is not None:
        base = base.scaled(settings.sim_scale)
    if settings.max_mappings is not None:
        base = replace(base, max_mappings=settings.max_mappings)
    return base
