"""Pipeline models M8, M6, M4 and M2 — Fig. 2(a) of the paper.

==================  ====  ====  ====  ====
Resource             M8    M6    M4    M2
==================  ====  ====  ====  ====
Hardware contexts     4     2     2     1
Max. instr/cycle      8     6     4     2
Max. threads/cycle    2     2     2     1
Queues (IQ/FQ/LQ)    64    32    32    16
Integer func. units   6     4     3     1
FP func. units        3     2     2     1
LD/ST units           4     2     2     1
==================  ====  ====  ====  ====

Fetch-buffer sizes come from §4: 32 entries for M6/M4, 16 for M2. The
monolithic baseline (M8) has no decoupling buffer in the paper; we give it
two fetch packets of slack so the shared fetch engine code path is
uniform (it never throttles an 8-wide rename).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

__all__ = ["PipelineModel", "M8", "M6", "M4", "M2", "MODELS_BY_NAME", "get_model"]


@dataclass(frozen=True)
class PipelineModel:
    """Static description of one pipeline (cluster) flavour."""

    name: str
    contexts: int  #: hardware thread contexts the pipeline can host
    width: int  #: max instructions/cycle through decode/issue/commit
    threads_per_cycle: int  #: distinct threads accepted into rename per cycle
    iq_entries: int  #: integer instruction queue entries
    fq_entries: int  #: floating-point queue entries
    lq_entries: int  #: load/store queue entries
    int_units: int
    fp_units: int
    ldst_units: int
    fetch_buffer: int  #: decoupling-buffer entries between fetch and decode

    def __post_init__(self) -> None:
        for field_name in (
            "contexts",
            "width",
            "threads_per_cycle",
            "iq_entries",
            "fq_entries",
            "lq_entries",
            "int_units",
            "fp_units",
            "ldst_units",
            "fetch_buffer",
        ):
            if getattr(self, field_name) <= 0:
                raise ValueError(f"{self.name}: {field_name} must be positive")
        if self.threads_per_cycle > self.contexts:
            raise ValueError(f"{self.name}: threads_per_cycle exceeds contexts")

    @property
    def total_queue_entries(self) -> int:
        return self.iq_entries + self.fq_entries + self.lq_entries

    def __str__(self) -> str:
        return self.name


M8 = PipelineModel(
    name="M8",
    contexts=4,
    width=8,
    threads_per_cycle=2,
    iq_entries=64,
    fq_entries=64,
    lq_entries=64,
    int_units=6,
    fp_units=3,
    ldst_units=4,
    fetch_buffer=16,
)

M6 = PipelineModel(
    name="M6",
    contexts=2,
    width=6,
    threads_per_cycle=2,
    iq_entries=32,
    fq_entries=32,
    lq_entries=32,
    int_units=4,
    fp_units=2,
    ldst_units=2,
    fetch_buffer=32,
)

M4 = PipelineModel(
    name="M4",
    contexts=2,
    width=4,
    threads_per_cycle=2,
    iq_entries=32,
    fq_entries=32,
    lq_entries=32,
    int_units=3,
    fp_units=2,
    ldst_units=2,
    fetch_buffer=32,
)

M2 = PipelineModel(
    name="M2",
    contexts=1,
    width=2,
    threads_per_cycle=1,
    iq_entries=16,
    fq_entries=16,
    lq_entries=16,
    int_units=1,
    fp_units=1,
    ldst_units=1,
    fetch_buffer=16,
)

MODELS_BY_NAME: Dict[str, PipelineModel] = {m.name: m for m in (M8, M6, M4, M2)}


def get_model(name: str) -> PipelineModel:
    """Look up a pipeline model by name ('M8', 'M6', 'M4', 'M2')."""
    try:
        return MODELS_BY_NAME[name]
    except KeyError:
        raise KeyError(
            f"unknown pipeline model {name!r}; available: {', '.join(MODELS_BY_NAME)}"
        ) from None
