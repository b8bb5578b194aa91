"""Issue bandwidth model.

Section 4.1: "The scheduler can issue up to 4 instructions per cycle: 4
simple integer, 2 complex integer/FP, 1 branch, 1 load and 1 store."  The
:class:`PortSchedule` books issue slots per class with an overall per-cycle
cap, letting the timing model schedule an instruction for the earliest cycle
at or after its readiness with a free slot.
"""

from __future__ import annotations

from repro.isa.opcodes import OpClass

#: Per-class issue slots per cycle (total capped separately).
ISSUE_PORTS: dict[OpClass, int] = {
    OpClass.ALU: 4,
    OpClass.COMPLEX: 2,
    OpClass.BRANCH: 1,
    OpClass.LOAD: 1,
    OpClass.STORE: 1,
    OpClass.NOP: 4,
}


class PortSchedule:
    """Books per-cycle issue slots.

    ``reserve(op_class, earliest)`` returns the first cycle >= *earliest*
    with both a free class slot and free total bandwidth, and books it.
    Completed cycles are garbage-collected lazily as the caller's commit
    pointer advances (see :meth:`discard_before`).
    """

    def __init__(
        self,
        ports: dict[OpClass, int] | None = None,
        total_width: int = 4,
    ) -> None:
        self.ports = dict(ports or ISSUE_PORTS)
        self.total_width = total_width
        #: Per-class slot limits indexed by int(op_class) (hot path: avoids
        #: enum hashing on every reservation).
        self._limits = [0] * len(OpClass)
        for op, limit in self.ports.items():
            self._limits[op] = limit
        #: cycle -> [per-class slot counts..., total] (one dict lookup per
        #: probe; the trailing element is the cycle's total booked width).
        self._used_by_cycle: dict[int, list[int]] = {}

    def reserve(self, op_class: OpClass | int, earliest: int) -> int:
        """Book a slot of *op_class* at the first feasible cycle."""
        op = int(op_class)
        limit = self._limits[op]
        width = self.total_width
        used_map = self._used_by_cycle
        cycle = earliest
        while True:
            used = used_map.get(cycle)
            if used is None:
                used = [0] * (len(self._limits) + 1)
                used[op] = 1
                used[-1] = 1
                used_map[cycle] = used
                return cycle
            if used[-1] < width and used[op] < limit:
                used[op] += 1
                used[-1] += 1
                return cycle
            cycle += 1

    def discard_before(self, cycle: int) -> None:
        """Free bookkeeping for cycles before *cycle* (already in the past)."""
        used_map = self._used_by_cycle
        if len(used_map) < 4096:
            return
        stale = [c for c in used_map if c < cycle]
        for c in stale:
            del used_map[c]
