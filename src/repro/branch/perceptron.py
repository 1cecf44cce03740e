"""Perceptron branch direction predictor.

The paper's Table 1 lists "perceptron (4K local, 256 perceps)": 256
perceptrons selected by a PC hash, each seeing a concatenation of the
thread's *global* history and the branch's *local* history taken from a
4096-entry local-history table (Jimenez & Lin's hybrid input arrangement).

Prediction: ``y = w0 + sum_i w_i * x_i`` with ``x_i in {-1, +1}`` history
bits; predict taken when ``y >= 0``. Training (on mispredict or when
``|y| <= theta``) nudges every weight toward the outcome; the classic
threshold ``theta = floor(1.93 * H + 14)`` controls training aggressiveness
and weights saturate at +/-``WEIGHT_LIMIT`` (signed 8-bit in hardware).

The implementation is deliberately scalar Python: a prediction touches
``H+1`` small ints, and at roughly one branch per simulated cycle this is
cheaper than paying per-call numpy dispatch overhead (per the profiling
guidance: measure the realistic call pattern, not the bulk one).
"""

from __future__ import annotations

from typing import List

__all__ = ["PerceptronPredictor"]


class PerceptronPredictor:
    """Hybrid global/local perceptron predictor shared by all threads.

    Parameters
    ----------
    num_perceptrons:
        Number of weight vectors (paper: 256). Must be a power of two.
    local_entries:
        Local-history table entries (paper: 4096). Must be a power of two.
    global_bits:
        Bits of per-thread global history in the input vector.
    local_bits:
        Bits of per-branch local history in the input vector.
    max_threads:
        Number of hardware threads (each gets a private global history).
    """

    __slots__ = (
        "num_perceptrons",
        "local_entries",
        "global_bits",
        "local_bits",
        "history_length",
        "theta",
        "weight_limit",
        "_weights",
        "_local_history",
        "_global_history",
        "_hist_shared",
        "_pred_mask_local",
        "_pred_mask_global",
        "lookups",
        "mispredicts",
        "trainings",
    )

    WEIGHT_LIMIT = 127

    def __init__(
        self,
        num_perceptrons: int = 256,
        local_entries: int = 4096,
        global_bits: int = 12,
        local_bits: int = 10,
        max_threads: int = 8,
    ) -> None:
        if num_perceptrons & (num_perceptrons - 1):
            raise ValueError("num_perceptrons must be a power of two")
        if local_entries & (local_entries - 1):
            raise ValueError("local_entries must be a power of two")
        self.num_perceptrons = num_perceptrons
        self.local_entries = local_entries
        self.global_bits = global_bits
        self.local_bits = local_bits
        self.history_length = global_bits + local_bits
        self.theta = int(1.93 * self.history_length + 14)
        self.weight_limit = self.WEIGHT_LIMIT
        # weights[p] is a list of history_length+1 ints (w0 = bias first).
        self._weights: List[List[int]] = [
            [0] * (self.history_length + 1) for _ in range(num_perceptrons)
        ]
        self._local_history = [0] * local_entries
        self._global_history = [0] * max_threads
        #: True while the history tables are still the restored snapshot's
        #: own lists (copy-on-write: the first shift copies them out).
        self._hist_shared = False
        self._pred_mask_local = (1 << local_bits) - 1
        self._pred_mask_global = (1 << global_bits) - 1
        self.lookups = 0
        self.mispredicts = 0
        self.trainings = 0

    # -- internal helpers ---------------------------------------------------

    def _index(self, pc: int) -> int:
        word = pc >> 2
        return (word ^ (word >> 8)) & (self.num_perceptrons - 1)

    # -- public API ---------------------------------------------------------

    def predict(self, thread: int, pc: int) -> bool:
        """Predict the direction of the branch at ``pc`` for ``thread``."""
        self.lookups += 1
        word = pc >> 2
        weights = self._weights[(word ^ (word >> 8)) & (self.num_perceptrons - 1)]
        g = self._global_history[thread] & self._pred_mask_global
        loc = self._local_history[word & (self.local_entries - 1)] & self._pred_mask_local
        inputs = (g << self.local_bits) | loc
        y = weights[0]
        for w in weights[1:]:
            if inputs & 1:
                y += w
            else:
                y -= w
            inputs >>= 1
        return y >= 0

    def update(self, thread: int, pc: int, taken: bool) -> None:
        """Train on the resolved outcome and shift both histories.

        Called at branch resolution. Histories are updated speculatively in
        real front ends; the trace-driven model trains and shifts together,
        which is the standard SMTSIM simplification.
        """
        word = pc >> 2
        idx = (word ^ (word >> 8)) & (self.num_perceptrons - 1)
        weights = self._weights[idx]
        li = word & (self.local_entries - 1)
        g = self._global_history[thread] & self._pred_mask_global
        loc = self._local_history[li] & self._pred_mask_local
        inputs = (g << self.local_bits) | loc
        y = weights[0]
        bits = inputs
        for w in weights[1:]:
            if bits & 1:
                y += w
            else:
                y -= w
            bits >>= 1
        pred = y >= 0
        if pred != taken:
            self.mispredicts += 1
        if pred != taken or (y if y >= 0 else -y) <= self.theta:
            self.trainings += 1
            t = 1 if taken else -1
            limit = self.weight_limit
            neg = -limit
            w0 = weights[0] + t
            trained = [limit if w0 > limit else (neg if w0 < neg else w0)]
            append = trained.append
            bits = inputs
            for w in weights[1:]:
                w = w + t if bits & 1 else w - t
                append(limit if w > limit else (neg if w < neg else w))
                bits >>= 1
            # Rows are *replaced*, never mutated in place: restored
            # snapshots share row objects with live predictors (row-level
            # copy-on-write) and stay valid whatever trains afterwards.
            self._weights[idx] = trained
        # history shifts
        if self._hist_shared:
            self._local_history = self._local_history[:]
            self._global_history = self._global_history[:]
            self._hist_shared = False
        bit = 1 if taken else 0
        self._global_history[thread] = (
            (self._global_history[thread] << 1) | bit
        ) & self._pred_mask_global
        self._local_history[li] = (
            (self._local_history[li] << 1) | bit
        ) & self._pred_mask_local

    def update_many(self, thread: int, pcs, outcomes) -> None:
        """Batched :meth:`update` over one thread's resolved branches
        (warm-up path): identical training sequence, one bound call."""
        update = self.update
        for pc, taken in zip(pcs, outcomes):
            update(thread, pc, taken)

    def dump_state(self) -> tuple:
        """(weights, histories, stats) snapshot for exact restore.

        O(perceptrons), not O(weights): rows are shared, not copied —
        safe because training replaces rows instead of mutating them
        (see :meth:`update`), so a snapshot's rows can never change
        under it. History lists are small and copied outright.
        """
        return (
            self._weights[:],
            self._local_history[:],
            self._global_history[:],
            self.lookups,
            self.mispredicts,
            self.trainings,
        )

    def load_state(self, snap: tuple) -> None:
        """Restore a :meth:`dump_state` snapshot, copy-on-write: the
        row list is adopted shallowly (rows are immutable-by-convention)
        and the history tables stay the snapshot's own lists until the
        first post-restore shift copies them out — restoring thousands
        of screening candidates from one snapshot costs O(perceptrons)
        each, and no amount of post-restore training aliases back."""
        weights, local, global_, lookups, mispredicts, trainings = snap
        self._weights = list(weights)
        self._local_history = local
        self._global_history = global_
        self._hist_shared = True
        self.lookups = lookups
        self.mispredicts = mispredicts
        self.trainings = trainings

    def reset_thread(self, thread: int) -> None:
        """Clear one thread's global history (context switch)."""
        if self._hist_shared:
            self._local_history = self._local_history[:]
            self._global_history = self._global_history[:]
            self._hist_shared = False
        self._global_history[thread] = 0

    def reset_stats(self) -> None:
        """Zero counters, keep weights/history (post-warm-up)."""
        self.lookups = 0
        self.mispredicts = 0
        self.trainings = 0

    @property
    def mispredict_rate(self) -> float:
        """Fraction of trained branches that were mispredicted."""
        if self.lookups == 0:
            return 0.0
        return self.mispredicts / max(1, self.lookups)

    def storage_bits(self) -> int:
        """Total predictor storage in bits (for the area model)."""
        weight_bits = 8 * (self.history_length + 1) * self.num_perceptrons
        local_bits = self.local_bits * self.local_entries
        return weight_bits + local_bits
