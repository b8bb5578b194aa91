"""Hybrid gshare/bimodal branch predictor, BTB, and return address stack.

Sizing follows Section 4.1: a 12k-entry hybrid (modelled as 4k-entry gshare,
4k-entry bimodal, and 4k-entry chooser tables of 2-bit counters), a 2k-entry
4-way BTB, and a 32-entry RAS.  The 256-instruction-window machine of
Figure 3 quadruples the predictor tables.
"""

from __future__ import annotations


def _saturate(counter: int, taken: bool, maximum: int = 3) -> int:
    if taken:
        return min(maximum, counter + 1)
    return max(0, counter - 1)


class HybridBranchPredictor:
    """McFarling-style hybrid: gshare + bimodal with a chooser table.

    ``predict_and_train`` performs a prediction and immediately updates the
    tables with the actual outcome.  The trace-driven timing model calls it
    once per dynamic branch; the redirect penalty for a misprediction is
    applied by the pipeline model.
    """

    def __init__(self, table_entries: int = 4096, history_bits: int = 12) -> None:
        self._mask = table_entries - 1
        self._hist_mask = (1 << history_bits) - 1
        self._gshare = [1] * table_entries
        self._bimodal = [1] * table_entries
        self._chooser = [2] * table_entries  # weakly prefer gshare
        self._history = 0
        self._index_bits = table_entries.bit_length() - 1

    def _hash(self, pc: int) -> int:
        # Multiplicative hash: spreads strided instruction layouts evenly.
        return ((pc >> 2) * 0x9E3779B1) >> (32 - self._index_bits)

    def predict_and_train(self, pc: int, taken: bool) -> bool:
        """Predict the branch at *pc*, train with *taken*; return the prediction."""
        hashed = self._hash(pc)
        index_b = hashed & self._mask
        index_g = (hashed ^ self._history) & self._mask
        pred_g = self._gshare[index_g] >= 2
        pred_b = self._bimodal[index_b] >= 2
        use_gshare = self._chooser[index_b] >= 2
        prediction = pred_g if use_gshare else pred_b

        # Train the component tables and the chooser (_saturate inlined:
        # this runs once per simulated branch).
        gshare = self._gshare
        count = gshare[index_g]
        gshare[index_g] = (
            count + 1 if taken and count < 3
            else count - 1 if not taken and count > 0
            else count
        )
        bimodal = self._bimodal
        count = bimodal[index_b]
        bimodal[index_b] = (
            count + 1 if taken and count < 3
            else count - 1 if not taken and count > 0
            else count
        )
        if pred_g != pred_b:
            self._chooser[index_b] = _saturate(self._chooser[index_b], pred_g == taken)
        self._history = ((self._history << 1) | int(taken)) & self._hist_mask
        return prediction


class BTB:
    """Set-associative branch target buffer with LRU replacement.

    A taken branch whose target misses in the BTB costs a fetch bubble even
    when its direction was predicted correctly.
    """

    def __init__(self, entries: int = 2048, assoc: int = 4) -> None:
        self.num_sets = entries // assoc
        self.assoc = assoc
        #: Per-set dicts, each built on first touch (``None`` until then).
        self._sets: list[dict[int, int] | None] = [None] * self.num_sets
        self._hash_shift = 32 - (self.num_sets.bit_length() - 1)
        self._set_mask = self.num_sets - 1

    def lookup_and_update(self, pc: int, target: int) -> bool:
        """Probe the BTB for *pc*; insert/refresh the mapping. True on hit."""
        tag = pc >> 2
        index = ((tag * 0x9E3779B1) >> self._hash_shift) & self._set_mask
        btb_set = self._sets[index]
        if btb_set is None:
            btb_set = self._sets[index] = {}
        hit = btb_set.get(tag) == target
        if tag in btb_set:
            btb_set.pop(tag)
        elif len(btb_set) >= self.assoc:
            btb_set.pop(next(iter(btb_set)))
        btb_set[tag] = target
        return hit


class ReturnAddressStack:
    """Fixed-depth return address stack (32 entries in the paper)."""

    def __init__(self, depth: int = 32) -> None:
        self.depth = depth
        self._stack: list[int] = []

    def push(self, return_pc: int) -> None:
        if len(self._stack) >= self.depth:
            del self._stack[0]
        self._stack.append(return_pc)

    def pop(self) -> int | None:
        if self._stack:
            return self._stack.pop()
        return None

    def predict_return(self, actual_target: int) -> bool:
        """Pop the RAS and report whether it predicted *actual_target*."""
        predicted = self.pop()
        return predicted == actual_target
