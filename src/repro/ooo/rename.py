"""Register renaming state for the trace-driven timing model.

The :class:`RegisterMapper` is the register alias table (RAT) at
architectural granularity: it maps each architectural register to the
in-flight instruction that produces its current value (or to "committed" if
the youngest writer has left the window).

NoSQ's speculative memory bypassing is implemented exactly as the paper's
rename-stage short-circuit: a bypassed load's destination register is mapped
to the *producer of the predicted store's data input* (the DEF in the
DEF-store-load-USE chain), so consumers wake up on the DEF's completion
rather than on a load execution that never happens.

The mapper keeps per-register writer stacks so a verification flush can
restore the mapping precisely (writers younger than the flushed load are
popped).
"""

from __future__ import annotations

from repro.isa.instructions import NUM_ARCH_REGS, REG_ZERO
from repro.ooo.rob import InFlightInst


class RegisterMapper:
    """Architectural-register RAT with flush rollback.

    Each architectural register maps to a stack of ``(seq, producer)`` pairs
    where ``producer`` is the :class:`InFlightInst` whose result the register
    holds (bypassed loads push the DEF instruction instead of themselves).
    An empty stack means the architectural value is committed and ready.
    """

    def __init__(self, num_regs: int = NUM_ARCH_REGS) -> None:
        self.num_regs = num_regs
        self._stacks: list[list[tuple[int, InFlightInst]]] = [
            [] for _ in range(num_regs)
        ]

    def producer(self, reg: int) -> InFlightInst | None:
        """Youngest in-flight producer of *reg*, or None if committed."""
        stack = self._stacks[reg]
        return stack[-1][1] if stack else None

    def ready_cycle(self, reg: int) -> int:
        """Cycle at which the current value of *reg* is available (0 if
        already committed).  Unscheduled producers report a huge sentinel;
        callers must only query registers whose producers are scheduled."""
        producer = self.producer(reg)
        if producer is None or reg == REG_ZERO:
            return 0
        if producer.complete_cycle < 0:
            raise RuntimeError(
                f"querying unscheduled producer of r{reg} (seq {producer.seq})"
            )
        return producer.complete_cycle

    def define(self, reg: int | None, seq: int, producer: InFlightInst) -> None:
        """Record that the instruction at *seq* redefines *reg* and that
        its value is produced by *producer* (normally the instruction
        itself; for SMB loads, the DEF)."""
        if reg is None or reg == REG_ZERO:
            return
        self._stacks[reg].append((seq, producer))

    def retire_older_than(self, seq: int) -> None:
        """Drop mappings for writers at or before *seq* that are shadowed.

        The bottom of each stack only needs the youngest committed writer
        (flush rollback may expose it); we prune stale entries to bound
        memory on long traces.  One scan + one bulk delete per stack: the
        cycle loop batches calls (one per ~64 commits), so stacks carry a
        long committed prefix and repeated ``del stack[0]`` would be
        quadratic.
        """
        for stack in self._stacks:
            if not stack or stack[0][0] > seq:
                continue
            length = len(stack)
            keep = 1
            while keep < length and stack[keep][0] <= seq:
                keep += 1
            if keep == length:
                # Every writer committed; the value is architectural.
                stack.clear()
            elif keep > 1:
                # Shadowed committed prefix; keep the youngest committed.
                del stack[:keep - 1]

    def squash_younger(self, seq: int) -> None:
        """Remove mappings created by instructions younger than *seq*."""
        for stack in self._stacks:
            while stack and stack[-1][0] > seq:
                stack.pop()
