"""The store register queue (SRQ, Section 3.2).

"The store register queue parallels a traditional store queue in structure,
but unlike a traditional store queue is not a datapath element.  It contains
only physical register numbers (not addresses and values) and it is accessed
only at rename, not at execute."

In this model an SRQ entry records, per in-flight store: a handle for the
producer of the store's data input (the DEF of the DEF-store-load-USE chain,
used by the rename short-circuit), plus the store's access size and
FP-convert flag, which parameterize the injected shift & mask operation for
partial-word bypassing (the store "size and type is recorded in the store
register queue", Section 3.5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


@dataclass(slots=True)
class SRQEntry:
    ssn: int
    #: Producer of the store's data input (opaque handle; the timing model
    #: stores the in-flight DEF instruction, standing in for the dtag).
    def_producer: Any
    #: The store's dynamic seq (for ground-truth cross-checks).
    store_seq: int
    #: The store's access size in bytes and FP-convert flag.
    size: int
    fp_convert: bool


class StoreRegisterQueue:
    """A circular, SSN-indexed buffer of :class:`SRQEntry`.

    Indexed with the low-order bits of the SSN ("SSNs are easily convertible
    to store queue indices", Section 2).  Capacity must cover the maximum
    number of in-flight stores (bounded by the ROB size, since NoSQ has no
    store queue to limit store dispatch).
    """

    def __init__(self, capacity: int = 128) -> None:
        self.capacity = capacity
        self._entries: dict[int, SRQEntry] = {}

    def insert(self, entry: SRQEntry) -> None:
        slot = entry.ssn % self.capacity
        existing = self._entries.get(slot)
        if existing is not None and existing.ssn != entry.ssn:
            raise RuntimeError(
                f"SRQ slot collision: ssn {entry.ssn} vs in-flight {existing.ssn}"
            )
        self._entries[slot] = entry

    def lookup(self, ssn: int) -> SRQEntry | None:
        """Rename-time lookup by SSN; None if not present (e.g. committed)."""
        entry = self._entries.get(ssn % self.capacity)
        if entry is not None and entry.ssn == ssn:
            return entry
        return None

    def retire(self, ssn: int) -> None:
        """Remove the entry for a committing store, if still present."""
        slot = ssn % self.capacity
        entry = self._entries.get(slot)
        if entry is not None and entry.ssn == ssn:
            del self._entries[slot]

    def squash_above(self, ssn: int) -> None:
        """Remove entries for squashed stores younger than *ssn*."""
        stale = [slot for slot, e in self._entries.items() if e.ssn > ssn]
        for slot in stale:
            del self._entries[slot]

    def clear(self) -> None:
        """Full clear (SSN wraparound drain)."""
        self._entries.clear()
