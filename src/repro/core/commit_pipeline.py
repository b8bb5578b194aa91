"""The in-order back-end commit pipeline (Section 3.4, Tables 2 and 4).

The conventional baseline back end has 6 stages (setup, SVW, 3x data cache,
commit).  NoSQ extends it to 8 (setup, 2x register read, agen/SVW, 3x data
cache, commit): with no store queue, stores read their base address and data
from the register file and generate their addresses "just in time" before
the SVW and data-cache-write stages, and the same ports/adders (re)generate
load addresses so the load queue can be eliminated too.

Timing consequences modelled here:

* one data-cache write port shared, in commit order, between store commits
  and load re-executions (contention delays both);
* a store's write becomes visible in the cache only after it traverses the
  back end (entry + dcache-stage offset + port contention) -- the window in
  which a too-early cache read by a younger load is stale;
* a verification flush is detected a full back-end depth after the load
  enters the pipeline, so NoSQ's longer back end raises its mis-speculation
  penalty;
* store-commit TLB translation occupies the shared TLB port; bypassed loads
  that re-execute borrow it.
"""

from __future__ import annotations

from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.tlb import TLB
from repro.pipeline.config import BackendConfig


class CommitPipeline:
    """Books the shared back-end data-cache port and tracks visibility."""

    def __init__(
        self,
        config: BackendConfig,
        hierarchy: MemoryHierarchy,
        tlb: TLB,
        translate_stores: bool = True,
    ) -> None:
        self.config = config
        self.hierarchy = hierarchy
        self.tlb = tlb
        #: NoSQ translates store addresses in the back end (they were never
        #: translated out-of-order); the conventional baseline translated at
        #: execute and commits with physical addresses.
        self.translate_stores = translate_stores
        self._port_free = 0  # next cycle the D$ write port is free

    def _book_port(self, earliest: int) -> int:
        # A comparison, not max(): this runs once per committed store.
        slot = self._port_free
        if slot < earliest:
            slot = earliest
        self._port_free = slot + 1
        return slot

    def store_commit(self, entry_cycle: int, addr: int, size: int) -> int:
        """A store enters the back end at *entry_cycle*; write the cache.

        Returns the cycle at which the store's value is visible to cache
        reads.
        """
        earliest = entry_cycle + self.config.dcache_offset
        if self.translate_stores:
            earliest += self.tlb.access(addr)
        slot = self._book_port(earliest)
        self.hierarchy.write(addr)
        return slot + 1

    def load_reexec(self, entry_cycle: int, addr: int, translate: bool = False) -> int:
        """Re-execute a load in the back end (borrowing the store port).

        ``translate`` is True for bypassed loads, whose addresses were never
        translated out-of-order ("address translation bandwidth for bypassed
        loads that must re-execute is provided by the store TLB port").
        Returns the cycle the re-executed value is available for the commit
        comparison.
        """
        earliest = entry_cycle + self.config.dcache_offset
        if translate:
            earliest += self.tlb.access(addr)
        slot = self._book_port(earliest)
        self.hierarchy.read(addr)
        return slot + 1

    def flush_detect_cycle(self, entry_cycle: int) -> int:
        """Cycle at which a verification mismatch is detected for a load
        that entered the back end at *entry_cycle*."""
        return entry_cycle + self.config.depth
