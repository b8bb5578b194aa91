"""Register renaming state for the trace-driven timing model.

The :class:`RegisterMapper` is the register alias table (RAT) at
architectural granularity: it maps each architectural register to the
instruction that produced its current value.

NoSQ's speculative memory bypassing is implemented exactly as the paper's
rename-stage short-circuit: a bypassed load's destination register is mapped
to the *producer of the predicted store's data input* (the DEF in the
DEF-store-load-USE chain), so consumers wake up on the DEF's completion
rather than on a load execution that never happens.

Each entry holds one producer.  A writer stores the producer it
overwrites in its own ``undo_producer`` slot, so a verification flush
restores the map by walking the squashed writers youngest-first.  A
committed producer simply stays mapped until the next writer: its
completion cycle is below every later consumer's readiness floor, so
reading it is the same as reading "ready" (DESIGN.md §4).
"""

from __future__ import annotations

from typing import Iterable

from repro.isa.instructions import NUM_ARCH_REGS, REG_ZERO
from repro.ooo.rob import InFlightInst


class RegisterMapper:
    """Architectural-register RAT with flush rollback.

    ``producers[reg]`` is the :class:`InFlightInst` whose result *reg*
    holds, or None if no instruction has written *reg* yet.
    """

    def __init__(self, num_regs: int = NUM_ARCH_REGS) -> None:
        self.producers: list[InFlightInst | None] = [None] * num_regs

    def define(self, reg: int | None, entry: InFlightInst) -> None:
        """Map *reg* to *entry*, remembering the producer it overwrites."""
        if reg is None or reg == REG_ZERO:
            return
        producers = self.producers
        entry.undo_producer = producers[reg]
        producers[reg] = entry

    def restore(self, squashed: Iterable[InFlightInst]) -> None:
        """Undo the mappings of *squashed* writers, given youngest-first."""
        producers = self.producers
        for entry in squashed:
            dst = entry.inst.dst
            if dst is not None and producers[dst] is entry:
                producers[dst] = entry.undo_producer
