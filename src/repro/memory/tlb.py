"""Set-associative TLB model (128-entry, 4-way in Section 4.1).

NoSQ's back-end pipeline translates store addresses (and the addresses of
bypassed loads that must re-execute) using the single store TLB port moved
from the out-of-order core (Section 3.4).  The timing model charges a fixed
miss penalty for TLB misses; the T-SSBF is virtually tagged, so translation
stays off the SVW filter path.
"""

from __future__ import annotations


class TLB:
    """A set-associative translation lookaside buffer with LRU replacement."""

    def __init__(
        self,
        entries: int = 128,
        assoc: int = 4,
        page_bytes: int = 4096,
        miss_penalty: int = 30,
    ) -> None:
        self.num_sets = entries // assoc
        self.assoc = assoc
        self.miss_penalty = miss_penalty
        self._sets: list[dict[int, None]] = [dict() for _ in range(self.num_sets)]
        self._page_shift = page_bytes.bit_length() - 1
        self._set_mask = self.num_sets - 1
        self._tag_shift = self.num_sets.bit_length() - 1

    def access(self, addr: int) -> int:
        """Translate *addr*; returns the added latency (0 on hit)."""
        vpn = addr >> self._page_shift
        tag = vpn >> self._tag_shift
        tlb_set = self._sets[vpn & self._set_mask]
        if tag in tlb_set:
            tlb_set.pop(tag)
            tlb_set[tag] = None
            return 0
        if len(tlb_set) >= self.assoc:
            tlb_set.pop(next(iter(tlb_set)))
        tlb_set[tag] = None
        return self.miss_penalty
