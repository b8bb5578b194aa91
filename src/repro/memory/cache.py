"""Set-associative cache timing model with true-LRU replacement.

The model tracks tags only (the timing simulator never needs cached data --
architectural values live in :class:`repro.memory.SparseMemory`), which keeps
the per-access cost low enough for cycle-level simulation in Python.
"""

from __future__ import annotations


class Cache:
    """A write-back, write-allocate, set-associative cache.

    Each set is an ordered dict from tag to dirty bit; ordering encodes LRU
    (last item = most recently used).  A set's dict is built on first
    touch (``None`` until then): a short run touches few of an L2's
    thousands of sets, and building and freeing the rest dominated
    processor set-up.
    """

    def __init__(
        self,
        size_bytes: int,
        assoc: int,
        line_bytes: int = 64,
    ) -> None:
        self.assoc = assoc
        self.num_sets = size_bytes // (assoc * line_bytes)
        self._sets: list[dict[int, bool] | None] = [None] * self.num_sets
        self._set_mask = self.num_sets - 1
        self._line_shift = line_bytes.bit_length() - 1
        self._tag_shift = self.num_sets.bit_length() - 1

    def access(self, addr: int, is_write: bool = False) -> bool:
        """Access the line containing *addr*; allocate on miss.

        Returns True on hit.  The caller translates hit/miss into latency via
        the hierarchy model.
        """
        line = addr >> self._line_shift
        index = line & self._set_mask
        cache_set = self._sets[index]
        if cache_set is None:
            cache_set = self._sets[index] = {}
        tag = line >> self._tag_shift
        hit = tag in cache_set
        if hit:
            dirty = cache_set.pop(tag) or is_write
            cache_set[tag] = dirty
        else:
            if len(cache_set) >= self.assoc:
                cache_set.pop(next(iter(cache_set)))
            cache_set[tag] = is_write
        return hit
