"""Store sequence numbers (Section 2).

All dynamic stores are assigned monotonically increasing SSNs at rename.
``SSNrename`` tracks the most recently renamed store, ``SSNcommit`` the most
recently committed one; their difference is the in-flight store count.  SSNs
are the naming scheme underlying the SVW filter and NoSQ's distance-based
dependence representation.

SSNs are finite (20 bits in the paper).  "In the rare situations in which
SSNs wrap around, the processor drains its pipeline and clears all hardware
structures that hold SSNs."  The processor detects the wrap itself: its
dispatch loop stops before a store whose SSN would reach ``limit``, waits
until the window and the back end are empty, and then charges the drain,
clears the T-SSBF and the SRQ and resets these counters
(``Processor._perform_drain``, counted in ``RunStats.ssn_wraps``).
"""

from __future__ import annotations


class SSNCounters:
    """The SSNrename / SSNcommit counter pair.

    SSN 0 is reserved as "before all traced stores" so that a load whose
    value comes from pre-existing memory has a well-defined SSNnvul of 0.
    """

    def __init__(self, bits: int = 20) -> None:
        self.limit = 1 << bits
        self.rename = 0
        self.commit = 0

    def advance_commit(self) -> int:
        """Commit the oldest in-flight store; returns its SSN."""
        if self.commit >= self.rename:
            raise RuntimeError("SSNcommit would pass SSNrename")
        self.commit += 1
        return self.commit

    def squash_to(self, ssn: int) -> None:
        """Roll SSNrename back to *ssn* (verification flush recovery)."""
        if ssn < self.commit or ssn > self.rename:
            raise ValueError(
                f"cannot roll back SSNrename to {ssn} "
                f"(commit={self.commit}, rename={self.rename})"
            )
        self.rename = ssn

    def reset(self) -> None:
        """Renumber from zero after a wraparound drain."""
        self.rename = 0
        self.commit = 0
