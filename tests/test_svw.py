"""Tests for SVW filtering with SMB-aware equality/inequality tests."""

from repro.core import BypassVerdict, SVWFilter, TaggedSSBF


def make_filter(entries=128, assoc=4):
    return SVWFilter(TaggedSSBF(entries=entries, assoc=assoc))


class TestNonBypassingInequality:
    def test_skip_when_not_vulnerable(self):
        svw = make_filter()
        svw.ssbf.update(0x100, 8, ssn=5)
        # The load executed after SSN 5 committed: not vulnerable.
        assert svw.test_nonbypassing(0x100, 8, ssn_nvul=5) is False

    def test_reexec_when_younger_store_committed(self):
        svw = make_filter()
        svw.ssbf.update(0x100, 8, ssn=7)
        # The load executed when only SSN 4 had committed.
        assert svw.test_nonbypassing(0x100, 8, ssn_nvul=4) is True

    def test_skip_for_untouched_address(self):
        svw = make_filter()
        svw.ssbf.update(0x100, 8, ssn=7)
        assert svw.test_nonbypassing(0x900, 8, ssn_nvul=0) is False

    def test_word_aliasing_is_conservative(self):
        """A store to a different byte of the same word forces re-execution
        (false positive) but never a missed one."""
        svw = make_filter()
        svw.ssbf.update(0x100, 1, ssn=9)
        assert svw.test_nonbypassing(0x104, 4, ssn_nvul=2) is True

    def test_eviction_watermark_forces_reexec(self):
        svw = SVWFilter(TaggedSSBF(entries=2, assoc=2))
        svw.ssbf.update(0x100, 8, ssn=5)
        svw.ssbf.update(0x110, 8, ssn=6)
        svw.ssbf.update(0x120, 8, ssn=7)   # evicts 0x100's entry
        assert svw.test_nonbypassing(0x100, 8, ssn_nvul=2) is True

    def test_stats(self):
        svw = make_filter()
        svw.ssbf.update(0x100, 8, ssn=5)
        verdicts = [
            svw.test_nonbypassing(0x100, 8, 5),
            svw.test_nonbypassing(0x100, 8, 2),
        ]
        assert verdicts == [False, True]


class TestBypassingEquality:
    def test_verified_bypass_skips(self):
        svw = make_filter()
        svw.ssbf.update(0x100, 8, ssn=5)
        verdict = svw.test_bypassing(0x100, 8, ssn_byp=5, predicted_shift=0)
        assert verdict is BypassVerdict.SKIP

    def test_partial_word_shift_verified(self):
        svw = make_filter()
        svw.ssbf.update(0x100, 8, ssn=5)
        verdict = svw.test_bypassing(0x104, 4, ssn_byp=5, predicted_shift=4)
        assert verdict is BypassVerdict.SKIP

    def test_wrong_shift_detected_without_replay(self):
        svw = make_filter()
        svw.ssbf.update(0x100, 8, ssn=5)
        verdict = svw.test_bypassing(0x104, 4, ssn_byp=5, predicted_shift=0)
        assert verdict is BypassVerdict.TRANSFORM_MISMATCH

    def test_coverage_violation_detected(self):
        svw = make_filter()
        svw.ssbf.update(0x104, 2, ssn=5)   # store bytes [4,6)
        verdict = svw.test_bypassing(0x104, 4, ssn_byp=5, predicted_shift=0)
        assert verdict is BypassVerdict.TRANSFORM_MISMATCH

    def test_wrong_store_reexecutes(self):
        svw = make_filter()
        svw.ssbf.update(0x100, 8, ssn=5)
        svw.ssbf.update(0x100, 8, ssn=6)   # younger store took the word
        verdict = svw.test_bypassing(0x100, 8, ssn_byp=5, predicted_shift=0)
        assert verdict is BypassVerdict.REEXEC

    def test_miss_reexecutes(self):
        svw = make_filter()
        verdict = svw.test_bypassing(0x900, 8, ssn_byp=5, predicted_shift=0)
        assert verdict is BypassVerdict.REEXEC

    def test_word_spanning_load_reexecutes(self):
        svw = make_filter()
        svw.ssbf.update(0x100, 8, ssn=5)
        verdict = svw.test_bypassing(0x104, 8, ssn_byp=5, predicted_shift=4)
        assert verdict is BypassVerdict.REEXEC

    def test_straddling_store_correct_shift_skips(self):
        """A store that began in the previous word: the shift counts from
        the store's start, not from the later word's base."""
        svw = make_filter()
        svw.ssbf.update(0x8036, 8, ssn=5)   # bytes 0x8036..0x803d
        verdict = svw.test_bypassing(0x8038, 4, ssn_byp=5, predicted_shift=2)
        assert verdict is BypassVerdict.SKIP

    def test_straddling_store_wrong_shift_detected(self):
        svw = make_filter()
        svw.ssbf.update(0x8036, 8, ssn=5)
        verdict = svw.test_bypassing(0x8038, 4, ssn_byp=5, predicted_shift=0)
        assert verdict is BypassVerdict.TRANSFORM_MISMATCH

    def test_equality_needs_exact_ssn(self):
        """An equality test with a stale SSN (e.g. after the word was
        rewritten) must not SKIP -- that is why the SSBF needs tags."""
        svw = make_filter()
        svw.ssbf.update(0x100, 8, ssn=3)
        assert svw.test_bypassing(0x100, 8, 2, 0) is BypassVerdict.REEXEC
        assert svw.test_bypassing(0x100, 8, 4, 0) is BypassVerdict.REEXEC

    def test_stats_classified(self):
        svw = make_filter()
        svw.ssbf.update(0x100, 8, ssn=5)
        verdicts = [
            svw.test_bypassing(0x100, 8, 5, 0),
            svw.test_bypassing(0x100, 8, 4, 0),
            svw.test_bypassing(0x104, 4, 5, 0),
        ]
        assert verdicts == [
            BypassVerdict.SKIP,
            BypassVerdict.REEXEC,
            BypassVerdict.TRANSFORM_MISMATCH,
        ]
