"""SVW re-execution filtering with SMB-aware tests (Section 3.4).

Both bypassed and non-bypassed loads share the same T-SSBF but apply
different tests before commit:

* **non-bypassing loads** use the *inequality* test: re-execute only if some
  store younger than ``SSNnvul`` (the youngest store the load is known not
  to be vulnerable to -- ``SSNcommit`` at the time the load executed) has
  since committed a write to the load's address;

* **bypassed loads** use the *equality* test: skip re-execution only when
  the last committed store to the load's address is exactly the predicted
  bypassing store (``SSNnvul = SSNbyp``).  The entry's recorded offset and
  size additionally verify -- without replay -- that the predicted shift
  amount was correct and that the store covered every byte the load reads
  (Section 3.5).

A shift/coverage mismatch on an SSN-matching entry proves the bypassed value
wrong with no cache access at all; the verdict distinguishes it so the
pipeline can flush directly.
"""

from __future__ import annotations

import enum

from repro.core.ssbf import TaggedSSBF


class BypassVerdict(enum.Enum):
    """Outcome of the SVW stage for a bypassed load."""

    SKIP = "skip"                      # verified: commit without re-execution
    REEXEC = "reexec"                  # filter cannot prove; re-execute
    TRANSFORM_MISMATCH = "mismatch"    # proven wrong (shift/coverage); flush


class SVWFilter:
    """The SVW stage of the back-end pipeline.

    Committing stores update the T-SSBF directly
    (:meth:`~repro.core.ssbf.TaggedSSBF.update`); this class holds the two
    load tests.
    """

    def __init__(self, ssbf: TaggedSSBF) -> None:
        self.ssbf = ssbf

    def test_nonbypassing(self, addr: int, size: int, ssn_nvul: int) -> bool:
        """Inequality test; returns True if the load must re-execute."""
        # No-conflict short-circuit: the filter's global SSN watermark upper-
        # bounds every per-word answer, so when no store younger than
        # SSNnvul has committed at all (the common case -- the load executed
        # with SSNcommit already caught up) the per-word walk cannot trigger
        # a re-execution and is skipped entirely.  Bit-identical: the full
        # test below would return False for exactly the same calls.
        if self.ssbf.max_recorded_ssn <= ssn_nvul:
            return False
        return self.ssbf.youngest_store_ssn(addr, size) > ssn_nvul

    def test_bypassing(
        self,
        addr: int,
        size: int,
        ssn_byp: int,
        predicted_shift: int,
    ) -> BypassVerdict:
        """Equality test with replay-free shift verification."""
        if (addr >> 3) != ((addr + size - 1) >> 3):
            # A load spanning filter words cannot be proven by a single
            # entry; re-execute conservatively (aligned accesses never span).
            return BypassVerdict.REEXEC
        entry = self.ssbf.lookup(addr)
        if entry is None or entry.ssn != ssn_byp:
            return BypassVerdict.REEXEC
        # The predicted store was indeed the last committed writer of this
        # word.  Verify coverage from the entry's offset/size, and the shift
        # from where the store really began (before this word, for a store
        # that straddles into it).
        word_base = (addr >> 3) << 3
        covered_start = word_base + entry.offset
        covered_end = covered_start + entry.size
        if addr < covered_start or addr + size > covered_end:
            return BypassVerdict.TRANSFORM_MISMATCH
        if addr - (word_base + entry.start) != predicted_shift:
            return BypassVerdict.TRANSFORM_MISMATCH
        return BypassVerdict.SKIP
