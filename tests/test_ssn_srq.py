"""Tests for SSN counters and the store register queue."""

import pytest

from repro.core import SRQEntry, SSNCounters, StoreRegisterQueue


def _renamed(count):
    """Counters after *count* stores renamed, as the dispatch loop does."""
    ssn = SSNCounters()
    ssn.rename += count
    return ssn


class TestSSNCounters:
    def test_monotonic_rename(self):
        """Stores commit in the order they renamed: SSN 1, then 2."""
        ssn = _renamed(2)
        assert [ssn.advance_commit(), ssn.advance_commit()] == [1, 2]

    def test_in_flight_occupancy(self):
        ssn = _renamed(2)
        assert ssn.rename - ssn.commit == 2
        ssn.advance_commit()
        assert ssn.rename - ssn.commit == 1

    def test_commit_cannot_pass_rename(self):
        ssn = SSNCounters()
        with pytest.raises(RuntimeError):
            ssn.advance_commit()

    def test_squash_rolls_back_rename(self):
        ssn = _renamed(5)
        ssn.advance_commit()
        ssn.squash_to(3)
        assert ssn.rename == 3
        with pytest.raises(ValueError):
            ssn.squash_to(0)   # below SSNcommit


def _srq_entry(ssn, store_seq=0, size=8, fp=False):
    return SRQEntry(
        ssn=ssn, def_producer=None, store_seq=store_seq, size=size,
        fp_convert=fp,
    )


class TestStoreRegisterQueue:
    def test_insert_lookup_retire(self):
        srq = StoreRegisterQueue(capacity=8)
        srq.insert(_srq_entry(1))
        assert srq.lookup(1).ssn == 1
        srq.retire(1)
        assert srq.lookup(1) is None

    def test_lookup_miss_for_absent_ssn(self):
        srq = StoreRegisterQueue(capacity=8)
        srq.insert(_srq_entry(1))
        assert srq.lookup(9) is None   # same slot, different SSN

    def test_slot_collision_detected(self):
        srq = StoreRegisterQueue(capacity=8)
        srq.insert(_srq_entry(1))
        with pytest.raises(RuntimeError):
            srq.insert(_srq_entry(9))   # 9 % 8 == 1 % 8

    def test_reinsert_same_ssn_allowed(self):
        """Flush replay re-renames the same store with the same SSN."""
        srq = StoreRegisterQueue(capacity=8)
        srq.insert(_srq_entry(1))
        srq.insert(_srq_entry(1, store_seq=0, size=4))
        assert srq.lookup(1).size == 4

    def test_squash_above(self):
        srq = StoreRegisterQueue(capacity=16)
        for ssn in (1, 2, 3, 4):
            srq.insert(_srq_entry(ssn, store_seq=ssn - 1))
        srq.squash_above(2)
        assert srq.lookup(2) is not None
        assert srq.lookup(3) is None
        assert srq.lookup(4) is None

    def test_clear(self):
        srq = StoreRegisterQueue(capacity=8)
        srq.insert(_srq_entry(1))
        srq.clear()
        assert srq.lookup(1) is None
        assert srq._entries == {}

    def test_carries_partial_word_metadata(self):
        """Section 3.5: store size and type live in the SRQ so the injected
        shift & mask op can be built non-speculatively."""
        srq = StoreRegisterQueue(capacity=8)
        srq.insert(_srq_entry(1, size=4, fp=True))
        entry = srq.lookup(1)
        assert entry.size == 4
        assert entry.fp_convert is True
