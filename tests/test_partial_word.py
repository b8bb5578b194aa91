"""Tests for partial-word bypassing transformations.

The central property: applying the injected shift & mask transformation to
the store's data-input register value must equal storing that value to
memory and loading it back -- verified against the functional executor's
semantics via hypothesis.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import resolve_config
from repro.core.partial_word import (
    apply_transform,
    transform_for,
)
from repro.isa import bits
from repro.memory import SparseMemory
from repro.validate import replay_oracle, run_diff
from tests.conftest import build_trace

WORD = st.integers(min_value=0, max_value=bits.WORD_MASK)


def _needs_injected_op(store_size, load_size, store_fp=False, load_fp=False):
    """Whether the pairing needs a shift & mask op: the processor injects
    one unless the transform is the identity."""
    transform = transform_for(
        store_size, store_fp, load_size, False, load_fp, 0
    )
    return not transform.is_identity


class TestNeedsInjectedOp:
    def test_full_word_is_pure_rename(self):
        assert not _needs_injected_op(8, 8)

    def test_narrow_load_needs_op(self):
        assert _needs_injected_op(8, 4)

    def test_narrow_store_needs_op(self):
        assert _needs_injected_op(4, 4)

    def test_fp_convert_needs_op(self):
        assert _needs_injected_op(4, 4, store_fp=True, load_fp=True)


class TestTransformConstruction:
    def test_identity(self):
        transform = transform_for(8, False, 8, False, False, 0)
        assert transform is not None and transform.is_identity

    def test_contained_narrow_load(self):
        transform = transform_for(8, False, 2, True, False, 4)
        assert transform is not None
        assert transform.shift == 4
        assert transform.sign_extend

    def test_uncontained_returns_none(self):
        # 1-byte store cannot supply a 2-byte load.
        assert transform_for(1, False, 2, False, False, 0) is None
        # Shift past the end of the store.
        assert transform_for(4, False, 4, False, False, 4) is None

    def test_negative_shift_rejected(self):
        assert transform_for(8, False, 4, False, False, -4) is None


class TestApplyTransformExamples:
    def test_low_halfword_zero_extended(self):
        transform = transform_for(8, False, 2, False, False, 0)
        assert apply_transform(0x1122_3344_5566_EDCB, transform) == 0xEDCB

    def test_low_halfword_sign_extended(self):
        transform = transform_for(8, False, 2, True, False, 0)
        value = apply_transform(0x1122_3344_5566_EDCB, transform)
        assert value == bits.sign_extend(0xEDCB, 2)

    def test_high_word_shift(self):
        transform = transform_for(8, False, 4, False, False, 4)
        assert apply_transform(0x1122_3344_5566_7788, transform) == 0x1122_3344

    def test_sts_lds_roundtrip(self):
        transform = transform_for(4, True, 4, False, True, 0)
        in_register = bits.double_to_bits(1.5)
        assert apply_transform(in_register, transform) == in_register


class TestMemoryRoundTripEquivalence:
    @given(
        WORD,
        st.sampled_from([1, 2, 4, 8]),     # store size
        st.sampled_from([1, 2, 4, 8]),     # load size
        st.integers(min_value=0, max_value=7),
        st.booleans(),
    )
    @settings(max_examples=200)
    def test_transform_equals_store_then_load(
        self, value, store_size, load_size, shift_steps, signed
    ):
        """For every legal pairing, the injected operation's result equals
        a memory round trip through the functional model."""
        shift = (shift_steps * load_size) % 8
        transform = transform_for(
            store_size, False, load_size, signed, False, shift
        )
        if transform is None:
            # Illegal pairing: containment must really be violated.
            assert shift + load_size > store_size or shift < 0
            return

        bypassed = apply_transform(value, transform)

        memory = SparseMemory()
        memory.write(0x100, bits.truncate(value, store_size), store_size)
        raw = memory.read(0x100 + shift, load_size)
        expected = (
            bits.sign_extend(raw, load_size) if signed
            else bits.zero_extend(raw, load_size)
        )
        assert bypassed == expected

    @given(st.floats(allow_nan=False, allow_infinity=False, width=32))
    @settings(max_examples=100)
    def test_fp_convert_equals_sts_lds(self, fp_value):
        """The FP transformation matches an sts followed by an lds."""
        in_register = bits.double_to_bits(fp_value)
        transform = transform_for(4, True, 4, False, True, 0)

        bypassed = apply_transform(in_register, transform)

        memory = SparseMemory()
        memory.write(0x100, bits.double_bits_to_single_bits(in_register), 4)
        expected = bits.single_bits_to_double_bits(memory.read(0x100, 4))
        assert bypassed == expected

    @given(WORD)
    def test_int_load_of_sts_pattern(self, value):
        """An integer load reading bytes written by sts sees the single
        pattern, zero/sign extended -- the transform must mimic that too."""
        transform = transform_for(4, True, 4, False, False, 0)
        bypassed = apply_transform(value, transform)

        memory = SparseMemory()
        memory.write(0x100, bits.double_bits_to_single_bits(value), 4)
        assert bypassed == memory.read(0x100, 4)


class TestOracleCrossCheck:
    """Partial-word forwarding edge cases end to end: crafted traces run
    through the full differential runner (timing model vs in-order
    oracle, :mod:`repro.validate`), which recomputes every bypassed
    load's value through this module's datapath and compares it against
    the oracle's ISA-semantics value."""

    @staticmethod
    def _loop(store_size, load_size, shift, *, signed=False, fp=False,
              iterations=48):
        """Fixed-PC DEF -> store -> load loop, the predictor-training
        shape (tests.conftest.comm_loop_specs with sub-word control)."""
        specs = []
        for i in range(iterations):
            addr = 0x8000 + 8 * (i % 16)
            specs.append(("alu", 8, {"pc": 0x2000}))
            specs.append(("st", addr, store_size, 8,
                          {"pc": 0x2004, "fp_convert": fp}))
            specs.append(("ld", addr + shift, load_size,
                          {"pc": 0x2008, "signed": signed,
                           "fp_convert": fp}))
        return build_trace(specs)

    @pytest.mark.parametrize("store_size,load_size,shift,signed", [
        (8, 2, 3, True),    # misaligned signed sub-word load of a word
        (8, 4, 3, False),   # misaligned unsigned load straddling bytes
        (8, 1, 7, True),    # last byte, sign-extended
        (4, 2, 1, False),   # sub-word store feeding a contained load
    ])
    def test_misaligned_contained_pairs_bypass_correctly(
        self, store_size, load_size, shift, signed
    ):
        trace = self._loop(store_size, load_size, shift, signed=signed)
        report = run_diff(resolve_config("nosq"), trace)
        assert report.ok, report.describe()
        # The loop must actually exercise the injected-operation path.
        assert report.stats.bypass_injected > 0

    @pytest.mark.parametrize("store_size,load_size,shift", [
        (2, 8, 0),   # sub-word store feeding a wider load
        (4, 8, 0),   # half-word store under a full-word load
        (8, 4, 6),   # load sticking out past the store's end
    ])
    def test_uncontained_pairs_never_bypass_wrongly(
        self, store_size, load_size, shift
    ):
        # No shift & mask transform exists for these pairings; NoSQ must
        # fall back to delay or a (verified) plain cache access, never a
        # wrong-valued bypass.  The multi-source/partial bytes also make
        # the load read background memory -- the oracle checks both.
        trace = self._loop(store_size, load_size, shift)
        report = run_diff(resolve_config("nosq"), trace)
        assert report.ok, report.describe()
        assert report.stats.bypass_injected == 0

    def test_two_narrow_stores_under_one_load(self):
        # The canonical multi-source partial-store case (Section 3.3):
        # two one-byte stores feeding a two-byte load, resolved by delay.
        specs = []
        for i in range(48):
            addr = 0x8000 + 8 * (i % 16)
            specs.append(("st", addr, 1, 8, {"pc": 0x2000}))
            specs.append(("st", addr + 1, 1, 8, {"pc": 0x2004}))
            specs.append(("ld", addr, 2, {"pc": 0x2008}))
        trace = build_trace(specs)
        oracle = replay_oracle(trace)
        assert all(o.is_multi_source for o in oracle.observations)
        for config_spec in ("nosq", "nosq-nodelay", "conventional"):
            report = run_diff(resolve_config(config_spec), trace)
            assert report.ok, report.describe()

    def test_sts_integer_load_mix_cross_checked(self):
        # sts writes the single pattern; an integer load reads it back.
        trace = self._loop(4, 4, 0, fp=False, iterations=32)
        fp_store_trace = build_trace([
            spec for i in range(32)
            for spec in (
                ("alu", 8, {"pc": 0x2000}),
                ("st", 0x8000 + 8 * (i % 8), 4, 8,
                 {"pc": 0x2004, "fp_convert": True}),
                ("ld", 0x8000 + 8 * (i % 8), 4, {"pc": 0x2008}),
            )
        ])
        for t in (trace, fp_store_trace):
            report = run_diff(resolve_config("nosq"), t)
            assert report.ok, report.describe()
