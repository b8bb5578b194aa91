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

import enum
from dataclasses import dataclass

from repro.isa.trace import DynInst


class ForwardKind(enum.Enum):
    """Outcome of an associative store-queue search."""

    NONE = "none"          # no older in-flight store writes the load's bytes
    FULL = "full"          # one store supplies every byte (forwardable)
    PARTIAL = "partial"    # multiple stores / partial coverage: must stall


@dataclass(slots=True)
class ForwardResult:
    kind: ForwardKind
    #: The forwarding store's entry for FULL; None otherwise.
    store: "StoreQueueEntry | None" = None
    #: Youngest store seq involved (PARTIAL waits for it to commit).
    youngest_seq: int = -1


@dataclass(slots=True)
class StoreQueueEntry:
    seq: int            # dynamic instruction sequence number
    ssn: int            # store sequence number
    addr: int
    size: int


class StoreQueue:
    """Age-ordered associative store queue (conventional baseline).

    Entries are kept in dispatch (age) order.  ``search`` implements the
    associative lookup: per byte of the load, the youngest older store
    writing that byte wins; full single-store coverage forwards, anything
    else stalls the load until the involved stores drain to the cache.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("store queue capacity must be positive")
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

    def search(self, load: DynInst) -> ForwardResult:
        """Associative search on behalf of *load* (must carry addr/size)."""
        byte_writer: dict[int, StoreQueueEntry] = {}
        for entry in self._entries:
            if entry.seq >= load.seq:
                break
            if entry.addr < load.addr + load.size and load.addr < entry.addr + entry.size:
                low = max(entry.addr, load.addr)
                high = min(entry.addr + entry.size, load.addr + load.size)
                for byte in range(low, high):
                    byte_writer[byte] = entry
        if not byte_writer:
            return ForwardResult(ForwardKind.NONE)
        covered = [
            byte_writer.get(b) for b in range(load.addr, load.addr + load.size)
        ]
        writers = {e.seq for e in covered if e is not None}
        youngest = max(writers)
        if None not in covered and len(writers) == 1:
            return ForwardResult(
                ForwardKind.FULL, store=covered[0], youngest_seq=youngest
            )
        return ForwardResult(ForwardKind.PARTIAL, youngest_seq=youngest)


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
