"""StoreSets memory-dependence predictor (Chrysos & Emer, ISCA 1998).

The conventional baseline uses a 4k-entry StoreSets predictor for load
scheduling (Section 4.1).  Two tables:

* the Store Set ID Table (SSIT), indexed by hashed instruction PC, maps both
  load and store PCs to a store-set identifier;
* the Last Fetched Store Table (LFST) maps a store-set identifier to the
  dynamic sequence number of the most recently renamed store in that set.

A load whose SSIT entry names a set with an in-flight store must wait for
that store's execution.  Training happens on memory-order violations: the
offending load and store are placed in a common set using the standard
merge rules (new set if neither has one; join if one has; collapse to the
smaller identifier if both do).
"""

from __future__ import annotations


class StoreSets:
    """SSIT + LFST with periodic clearing.

    The LFST stores opaque handles supplied by the caller (the timing model
    passes the in-flight store record so it can read the store's execution
    completion time).
    """

    #: Clear the SSIT every this many training events to break up stale sets
    #: (the standard cyclic-clearing policy).
    CLEAR_INTERVAL = 30_000

    def __init__(self, ssit_entries: int = 4096) -> None:
        self.ssit_entries = ssit_entries
        self._ssit: list[int | None] = [None] * ssit_entries
        self._lfst: dict[int, object] = {}
        self._next_ssid = 0
        self._trainings = 0

    def _index(self, pc: int) -> int:
        # Multiplicative hash: spreads strided instruction layouts evenly.
        key = pc >> 2
        bits = self.ssit_entries.bit_length() - 1
        return ((key * 0x9E3779B1) >> (32 - bits)) & (self.ssit_entries - 1)

    # -- rename-time interface --------------------------------------------

    def store_renamed(self, store_pc: int, handle: object) -> None:
        """A store in set SSIT[pc] becomes the set's last fetched store."""
        ssid = self._ssit[self._index(store_pc)]
        if ssid is not None:
            self._lfst[ssid] = handle

    def load_dependence(self, load_pc: int) -> object | None:
        """Return the handle of the store this load should wait for."""
        ssid = self._ssit[self._index(load_pc)]
        if ssid is None:
            return None
        return self._lfst.get(ssid)

    def store_retired(self, store_pc: int, handle: object) -> None:
        """Invalidate the LFST entry if it still names *handle*."""
        ssid = self._ssit[self._index(store_pc)]
        if ssid is not None and self._lfst.get(ssid) is handle:
            del self._lfst[ssid]

    # -- training -----------------------------------------------------------

    def train_violation(self, load_pc: int, store_pc: int) -> None:
        """Assign the violating load and store to a common store set."""
        self._trainings += 1
        if self._trainings % self.CLEAR_INTERVAL == 0:
            # Cyclic clearing of both tables.
            self._ssit = [None] * self.ssit_entries
            self._lfst.clear()
            return
        load_index = self._index(load_pc)
        store_index = self._index(store_pc)
        load_ssid = self._ssit[load_index]
        store_ssid = self._ssit[store_index]
        if load_ssid is None and store_ssid is None:
            ssid = self._next_ssid
            self._next_ssid += 1
            self._ssit[load_index] = ssid
            self._ssit[store_index] = ssid
        elif load_ssid is None:
            self._ssit[load_index] = store_ssid
        elif store_ssid is None:
            self._ssit[store_index] = load_ssid
        elif load_ssid != store_ssid:
            winner = min(load_ssid, store_ssid)
            self._ssit[load_index] = winner
            self._ssit[store_index] = winner
