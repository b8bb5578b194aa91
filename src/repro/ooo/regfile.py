"""Physical register file occupancy accounting with reference counting.

The machine has 160 physical registers (320 in the 256-entry-window machine).
A destination-writing instruction allocates one register at rename and the
register backing its previous mapping is released when it commits.

NoSQ's SMB lets the DEF and the bypassed load of a DEF-store-load-USE chain
share one physical register; sharing requires explicit reference counts to
decide when reallocation is safe (Section 3.4, footnote).  In this model a
bypassed load allocates *no* register and instead takes a reference on the
DEF's register, which is what reduces register pressure.
"""

from __future__ import annotations

from repro.isa.instructions import NUM_ARCH_REGS


class PhysicalRegisterFile:
    """Counts free physical registers; supports SMB reference sharing."""

    def __init__(self, total: int, arch_regs: int = NUM_ARCH_REGS) -> None:
        self._free = total - arch_regs
        #: reference counts for registers shared through SMB, keyed by the
        #: allocating instruction's dynamic seq.
        self._refcounts: dict[int, int] = {}

    def allocate(self, seq: int) -> None:
        """Allocate one register for the instruction at *seq*."""
        if self._free <= 0:
            raise RuntimeError("physical register underflow")
        self._free -= 1
        self._refcounts[seq] = 1

    def share(self, owner_seq: int) -> None:
        """A bypassed load takes a reference on the DEF's register."""
        if owner_seq in self._refcounts:
            self._refcounts[owner_seq] += 1

    def release(self, seq: int) -> None:
        """Drop one reference on the register allocated by *seq*; free it
        when the count reaches zero."""
        count = self._refcounts.get(seq)
        if count is None:
            return
        if count <= 1:
            del self._refcounts[seq]
            self._free += 1
        else:
            self._refcounts[seq] = count - 1
