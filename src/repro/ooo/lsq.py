"""Load queue and (baseline-only) fully-associative store queue.

The conventional baseline performs store-load forwarding through a 24-entry
associative store queue: an executing load searches older entries for writes
to its bytes and forwards from the youngest matching store.  NoSQ's entire
premise is deleting this structure, so only the baseline configurations
instantiate it.

The load queue in both designs is non-associative (verification happens by
re-execution, not by store-driven load-queue search) and therefore only
contributes capacity stalls; NoSQ can remove it entirely at no performance
cost (Section 3.4), which this model reflects by making the tracker optional.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(slots=True)
class StoreQueueEntry:
    seq: int            # dynamic instruction sequence number
    ssn: int            # store sequence number
    addr: int
    size: int


class StoreQueue:
    """Age-ordered associative store queue (conventional baseline).

    Entries are kept in dispatch (age) order.  The processor answers a
    load's associative lookup from the trace's per-byte annotations
    (``Processor._classify_against_sq``); tests/sq_search.py holds the
    search over these entries that the answer is checked against.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._entries: list[StoreQueueEntry] = []

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    def insert(self, entry: StoreQueueEntry) -> None:
        if self.full:
            raise RuntimeError("dispatch into a full store queue")
        if self._entries and entry.seq <= self._entries[-1].seq:
            raise ValueError("store queue entries must be age-ordered")
        self._entries.append(entry)

    def commit_head(self) -> StoreQueueEntry:
        if not self._entries:
            raise RuntimeError("committing from an empty store queue")
        return self._entries.pop(0)

    def squash_younger(self, seq: int) -> int:
        """Remove entries younger than *seq*; returns how many were removed."""
        before = len(self._entries)
        while self._entries and self._entries[-1].seq > seq:
            self._entries.pop()
        return before - len(self._entries)


class LoadQueueTracker:
    """Occupancy-only model of the non-associative load queue.

    ``capacity=None`` models NoSQ's load-queue-free design point (bottom of
    Figure 1), where bypassed and non-bypassed load addresses are
    (re)generated in the back-end pipeline instead.  The dispatch loop
    checks ``occupancy`` against ``capacity`` and increments it itself.
    """

    def __init__(self, capacity: int | None) -> None:
        self.capacity = capacity
        self.occupancy = 0

    @property
    def unlimited(self) -> bool:
        return self.capacity is None

    def remove(self, count: int = 1) -> None:
        if count > self.occupancy:
            raise RuntimeError("removing more load-queue entries than exist")
        self.occupancy -= count
