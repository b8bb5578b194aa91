"""The associative store-queue search, the reference the timing model's
annotation-based classification (``Processor._classify_against_sq``) is
checked against in tests/test_equivalence.py.

An executing load searches the older in-flight stores for writes to its
bytes: per byte, the youngest older store writing it wins; full
single-store coverage forwards, anything else stalls the load until the
involved stores drain to the cache.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.isa.trace import DynInst
from repro.ooo.lsq import StoreQueue, StoreQueueEntry


class ForwardKind(enum.Enum):
    """Outcome of an associative store-queue search."""

    NONE = "none"          # no older in-flight store writes the load's bytes
    FULL = "full"          # one store supplies every byte (forwardable)
    PARTIAL = "partial"    # multiple stores / partial coverage: must stall


@dataclass
class ForwardResult:
    kind: ForwardKind
    #: The forwarding store's entry for FULL; None otherwise.
    store: StoreQueueEntry | None = None
    #: Youngest store seq involved (PARTIAL waits for it to commit).
    youngest_seq: int = -1


def search(sq: StoreQueue, load: DynInst) -> ForwardResult:
    """Search *sq* on behalf of *load* (which must carry addr/size)."""
    byte_writer: dict[int, StoreQueueEntry] = {}
    for entry in sq._entries:
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
