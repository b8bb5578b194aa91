"""The tagged store sequence Bloom filter, T-SSBF (Sections 2.2, 3.4, 3.5).

The SVW filter tracks, per (hashed) address, the SSN of the youngest
committed store to write there.  The original untagged, direct-mapped
SSBF is safe only for *inequality* tests (aliasing can only cause
spurious re-executions, never missed ones); :class:`TaggedSSBF` adds tags
with FIFO sets, enabling the *equality* test NoSQ's bypassed loads need
("equality tests ... are unsafe in the presence of aliasing,
necessitating tags").  Each entry also holds the store's low-order address
bits and access size so that partial-word shift predictions can be
verified without replay (Section 3.5).  Per the paper's configuration
each entry is 8 bytes: a 20-bit SSN, 3-bit offset, 3-bit size, and a
38-bit tag; 128 entries, 4-way.  A store that straddles two words needs
one more bit in its later word's entry: whether the store began in the
previous word, so the shift is measured from the store's real start
rather than from the word base.

The filter tracks addresses at 8-byte-word granularity.  On a tag miss the
T-SSBF cannot prove the load safe against stores whose entries were evicted,
so each set maintains the maximum SSN it ever evicted; the inequality test
compares against this watermark, keeping the filter conservative.
"""

from __future__ import annotations

from dataclasses import dataclass

_WORD_SHIFT = 3  # 8-byte filter granularity


@dataclass(slots=True)
class SSBFEntry:
    ssn: int
    offset: int  # store address low-order bits within the word
    size: int    # store access size in bytes
    #: Store start relative to the word base: ``offset``, or negative when
    #: the store began in the previous word (the low-order address bits
    #: plus one began-in-previous-word bit).
    start: int


class TaggedSSBF:
    """Tagged, set-associative SSBF with FIFO replacement per set."""

    def __init__(self, entries: int = 128, assoc: int = 4) -> None:
        self.num_sets = entries // assoc
        self.assoc = assoc
        self._index_mask = self.num_sets - 1
        self._tag_shift = self.num_sets.bit_length() - 1
        self._sets: list[dict[int, SSBFEntry]] = [dict() for _ in range(self.num_sets)]
        #: per-set maximum SSN ever evicted (conservative watermark).
        self._evicted: list[int] = [0] * self.num_sets
        #: Maximum SSN ever recorded (entry or watermark).  Because stores
        #: update the filter in commit (SSN) order this equals the youngest
        #: committed store's SSN; it upper-bounds every per-word answer, so
        #: ``youngest_store_ssn(...) <= max_recorded_ssn`` always holds and
        #: the SVW inequality test can short-circuit the common
        #: no-younger-store case without walking the sets.
        self.max_recorded_ssn = 0

    def _locate(self, word: int) -> tuple[int, int]:
        return word & self._index_mask, word >> self._tag_shift

    def update(self, addr: int, size: int, ssn: int) -> None:
        """Record a committing store (SVW stage of the back-end pipeline)."""
        if ssn > self.max_recorded_ssn:
            self.max_recorded_ssn = ssn
        first = addr >> _WORD_SHIFT
        last = (addr + size - 1) >> _WORD_SHIFT
        if first == last:
            # A store inside one word: its offset is its start and its
            # span its size, so the clamps below reduce to nothing.
            index = first & self._index_mask
            entries = self._sets[index]
            tag = first >> self._tag_shift
            offset = addr & 7
            entry = entries.get(tag)
            if entry is not None:
                entry.ssn = ssn
                entry.offset = offset
                entry.size = size
                entry.start = offset
                return
            if len(entries) >= self.assoc:
                victim = entries.pop(next(iter(entries)))
                if victim.ssn > self._evicted[index]:
                    self._evicted[index] = victim.ssn
            entries[tag] = SSBFEntry(ssn, offset, size, offset)
            return
        for word in range(first, last + 1):
            index, tag = self._locate(word)
            entries = self._sets[index]
            word_base = word << _WORD_SHIFT
            start = addr - word_base
            offset = max(0, start)
            end = min(addr + size, word_base + 8)
            span = end - max(addr, word_base)
            entry = entries.get(tag)
            if entry is not None:
                entry.ssn = ssn
                entry.offset = offset
                entry.size = span
                entry.start = start
                continue
            if len(entries) >= self.assoc:
                victim_tag = next(iter(entries))
                victim = entries.pop(victim_tag)
                if victim.ssn > self._evicted[index]:
                    self._evicted[index] = victim.ssn
            entries[tag] = SSBFEntry(ssn, offset, span, start)

    def lookup(self, addr: int) -> SSBFEntry | None:
        """Look up the word containing *addr*; None on tag miss."""
        index, tag = self._locate(addr >> _WORD_SHIFT)
        return self._sets[index].get(tag)

    def youngest_store_ssn(self, addr: int, size: int) -> int:
        """Conservative upper bound on the SSN of the youngest committed
        store overlapping [addr, addr+size): the max over touched words of
        the entry SSN or eviction watermark."""
        first = addr >> _WORD_SHIFT
        last = (addr + size - 1) >> _WORD_SHIFT
        if first == last:
            # Aligned (single-word) access: one set probe, no range object.
            index = first & self._index_mask
            entry = self._sets[index].get(first >> self._tag_shift)
            youngest = self._evicted[index]
            if entry is not None and entry.ssn > youngest:
                return entry.ssn
            return youngest
        youngest = 0
        for word in range(first, last + 1):
            index, tag = self._locate(word)
            entry = self._sets[index].get(tag)
            if entry is not None:
                youngest = max(youngest, entry.ssn)
            youngest = max(youngest, self._evicted[index])
        return youngest

    def clear(self) -> None:
        """Full clear (SSN wraparound drain)."""
        for entries in self._sets:
            entries.clear()
        self._evicted = [0] * self.num_sets
        self.max_recorded_ssn = 0
