"""Path history for NoSQ's path-sensitive bypassing predictor.

Section 3.3: "the path history contains both branch directions (1 bit per
branch) and call PCs (2 bits per call)."  The history register is updated in
the front end as branches and calls are decoded; loads hash it with their PC
to index the path-sensitive predictor table.

Because the timing model is trace-driven on the correct path, the history
value seen by each load is a pure function of the trace prefix before it;
:func:`fill_path_history` stores it on each instruction once per trace, so
flush recovery never has to rewind history state and nothing snapshots or
restores the register.
"""

from __future__ import annotations

from typing import Sequence

from repro.isa.trace import DynInst

#: Maximum history length kept in the precomputed values; predictors mask
#: down to their configured number of bits (4-12 in Figure 5).
MAX_HISTORY_BITS = 16


class PathHistory:
    """An explicit path-history shift register."""

    def __init__(self, bits: int = MAX_HISTORY_BITS) -> None:
        if not 1 <= bits <= 64:
            raise ValueError("history bits must be in [1, 64]")
        self._mask = (1 << bits) - 1
        self.value = 0

    def update_branch(self, taken: bool) -> None:
        """Shift in one direction bit for a conditional branch."""
        self.value = ((self.value << 1) | int(taken)) & self._mask

    def update_call(self, call_pc: int) -> None:
        """Shift in two bits of the call-site PC."""
        self.value = ((self.value << 2) | ((call_pc >> 2) & 0x3)) & self._mask

    def update(self, inst: DynInst) -> None:
        """Apply the path-history effect of *inst*, if any."""
        if not inst.is_branch:
            return
        if inst.is_call:
            self.update_call(inst.pc)
        elif not inst.is_return:
            self.update_branch(inst.taken)


def fill_path_history(
    trace: Sequence[DynInst], bits: int = MAX_HISTORY_BITS
) -> None:
    """Store each instruction's pre-decode path history on ``inst.path_hist``.

    Called by :func:`repro.isa.trace.annotate_trace`, so the walk happens
    once per trace rather than once per simulated configuration.
    """
    history = PathHistory(bits)
    for inst in trace:
        inst.path_hist = history.value
        history.update(inst)
