"""Combined front-end branch unit: direction predictor + BTB + per-thread RAS.

The fetch engine calls :meth:`BranchUnit.predict` for every control
instruction in a fetch packet and :meth:`BranchUnit.resolve` when the
branch executes. The unit classifies the outcome:

* *direction mispredict* — full squash + redirect (wrong-path fetch in
  between), the expensive case;
* *BTB miss on a predicted/actual taken branch* — fetch cannot steer, a
  short decode-time bubble (the core charges ``btb_miss_penalty``);
* *RAS hit/mispredict* for returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.branch.btb import BranchTargetBuffer
from repro.branch.perceptron import PerceptronPredictor
from repro.branch.ras import ReturnAddressStack
from repro.isa.opcodes import OP_BRANCH, OP_CALL, OP_RETURN

__all__ = ["BranchUnit", "BranchPrediction"]


@dataclass(frozen=True)
class BranchPrediction:
    """Outcome of a front-end prediction for one control instruction."""

    taken: bool  #: predicted direction
    target_known: bool  #: BTB/RAS supplied a target for a taken prediction
    direction_mispredict: bool  #: predicted direction differs from the trace
    target_mispredict: bool  #: direction right, but target unknown/wrong


class BranchUnit:
    """Shared predictor state plus per-thread return stacks."""

    __slots__ = ("predictor", "btb", "rases", "stats_resolved", "stats_dir_miss")

    def __init__(
        self,
        max_threads: int,
        num_perceptrons: int = 256,
        local_entries: int = 4096,
        btb_entries: int = 256,
        btb_ways: int = 4,
        ras_entries: int = 256,
    ) -> None:
        self.predictor = PerceptronPredictor(
            num_perceptrons=num_perceptrons,
            local_entries=local_entries,
            max_threads=max_threads,
        )
        self.btb = BranchTargetBuffer(entries=btb_entries, ways=btb_ways)
        self.rases: List[ReturnAddressStack] = [
            ReturnAddressStack(ras_entries) for _ in range(max_threads)
        ]
        self.stats_resolved = 0
        self.stats_dir_miss = 0

    def predict(
        self, thread: int, pc: int, op_class: int, actual_taken: bool, actual_target: int
    ) -> BranchPrediction:
        """Predict one control instruction during fetch.

        The trace supplies the actual direction/target, so the unit can
        immediately classify the prediction; the *timing* consequences
        (when the squash happens) are the core's job.
        """
        if op_class == OP_CALL:
            # Calls are unconditionally taken; push the return address.
            self.rases[thread].push(pc + 4)
            target = self.btb.lookup(thread, pc)
            known = target is not None and target == actual_target
            return BranchPrediction(True, known, False, not known)
        if op_class == OP_RETURN:
            target = self.rases[thread].pop()
            known = target is not None and target == actual_target
            return BranchPrediction(True, known, False, not known)
        # Conditional branch.
        pred_taken = self.predictor.predict(thread, pc)
        dir_miss = pred_taken != actual_taken
        if pred_taken:
            target = self.btb.lookup(thread, pc)
            known = target is not None and target == actual_target
        else:
            known = True  # fall-through target always known
        tgt_miss = (not dir_miss) and actual_taken and not known
        return BranchPrediction(pred_taken, known, dir_miss, tgt_miss)

    def resolve(self, thread: int, pc: int, op_class: int, taken: bool, target: int) -> None:
        """Train predictor/BTB at branch resolution (execute stage)."""
        self.stats_resolved += 1
        if op_class == OP_BRANCH:
            self.predictor.update(thread, pc, taken)
        if taken:
            self.btb.update(thread, pc, target)

    def note_direction_mispredict(self) -> None:
        self.stats_dir_miss += 1

    def clear_thread(self, thread: int) -> None:
        """Reset per-thread speculation state (context switch)."""
        self.predictor.reset_thread(thread)
        self.rases[thread].clear()

    def reset_stats(self) -> None:
        """Zero counters, keep learned state (post-warm-up)."""
        self.predictor.reset_stats()
        self.btb.reset_stats()
        self.stats_resolved = 0
        self.stats_dir_miss = 0
