"""Two-level cache hierarchy timing model.

Latencies follow Section 4.1: 3-cycle L1 data cache, 10-cycle 1MB 8-way L2,
150-cycle main memory behind a 16-byte bus clocked at one quarter of the
processor frequency (modelled as a per-line transfer occupancy added to the
memory latency).
"""

from __future__ import annotations

from repro.memory.cache import Cache
from repro.pipeline.config import HierarchyConfig


class MemoryHierarchy:
    """L1 data cache + unified L2 + main memory.

    ``read``/``write`` return the access latency in cycles and update the
    cache state.  The model is tag-only: data correctness is handled by the
    functional layer; this class provides timing only (Figure 4's
    data-cache read counts are ``RunStats`` counters).
    """

    def __init__(self, config: HierarchyConfig | None = None) -> None:
        self.config = config or HierarchyConfig()
        cfg = self.config
        self.l1 = Cache(cfg.l1_size, cfg.l1_assoc, cfg.line_bytes)
        self.l2 = Cache(cfg.l2_size, cfg.l2_assoc, cfg.line_bytes)
        self._line_fill_cycles = max(
            1, cfg.line_bytes // max(1, cfg.bus_bytes_per_cycle)
        )

    def read(self, addr: int) -> int:
        """A demand load access; returns its latency."""
        # Cache.access's L1 read paths are inlined here (one probe per
        # out-of-order load issue); behaviour matches Cache.access exactly.
        cfg = self.config
        l1 = self.l1
        line = addr >> l1._line_shift
        index = line & l1._set_mask
        cache_set = l1._sets[index]
        tag = line >> l1._tag_shift
        if cache_set is None:
            cache_set = l1._sets[index] = {}
        elif tag in cache_set:
            cache_set[tag] = cache_set.pop(tag)
            return cfg.l1_latency
        if len(cache_set) >= l1.assoc:
            cache_set.pop(next(iter(cache_set)))
        cache_set[tag] = False
        latency = cfg.l1_latency + cfg.l2_latency
        if self.l2.access(addr, False):
            return latency
        return latency + cfg.memory_latency + self._line_fill_cycles

    def write(self, addr: int) -> int:
        """A committed store writing the data cache; returns its latency."""
        cfg = self.config
        if self.l1.access(addr, True):
            return cfg.l1_latency
        latency = cfg.l1_latency + cfg.l2_latency
        if self.l2.access(addr, True):
            return latency
        return latency + cfg.memory_latency + self._line_fill_cycles

