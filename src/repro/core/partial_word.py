"""Partial-word bypassing (Section 3.5).

A partial-word store-load pair implicitly performs mask, shift, and
sign/zero-extend operations on the value passed from DEF to USE; on Alpha
(and in the mini-ISA) the ``lds``/``sts`` pair additionally converts between
the 32-bit in-memory single-precision format and the 64-bit in-register
representation.  For SMB to replace all store-load forwarding it must mimic
these transformations: NoSQ injects a speculative *shift & mask* instruction
into the out-of-order engine in place of the bypassed load.

From the store's size/type (recorded in the SRQ) and the load's opcode, the
transformation is known non-speculatively -- except the byte shift, which
depends on both addresses and is therefore *predicted* (learned in the
bypassing predictor, verified without replay by the T-SSBF offset/size
fields).

This module computes the transformation parameters and applies them to
values; a property test checks equivalence against a memory round-trip
through the functional executor.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa import bits


@dataclass(frozen=True, slots=True)
class BypassTransform:
    """Parameters of the injected shift & mask operation."""

    #: Byte shift into the store's register value (predicted).
    shift: int
    #: Bytes the load reads.
    load_size: int
    #: Sign-extend (True) or zero-extend (False) the extracted bytes.
    sign_extend: bool
    #: Store applies the sts register->memory single conversion first.
    store_fp_convert: bool
    #: Load applies the lds memory->register single conversion last.
    load_fp_convert: bool

    @property
    def is_identity(self) -> bool:
        """True when the bypass needs no injected operation at all: a
        full-word store feeding a full-word load with no conversions lets
        the rename short-circuit stand alone."""
        return (
            self.shift == 0
            and self.load_size == bits.WORD_BYTES
            and not self.store_fp_convert
            and not self.load_fp_convert
        )


def transform_for(
    store_size: int,
    store_fp_convert: bool,
    load_size: int,
    load_signed: bool,
    load_fp_convert: bool,
    shift: int,
) -> BypassTransform | None:
    """Build the transformation for a predicted store/load pairing.

    Returns None when no shift & mask operation can reproduce the load's
    value from the store's input register -- i.e. the load is not contained
    in the store (``shift + load_size > store_size``).  Such pairings are
    exactly the cases delay must handle.
    """
    if shift < 0 or shift + load_size > store_size:
        return None
    return BypassTransform(
        shift=shift,
        load_size=load_size,
        sign_extend=load_signed,
        store_fp_convert=store_fp_convert,
        load_fp_convert=load_fp_convert,
    )


def apply_transform(store_reg_value: int, transform: BypassTransform) -> int:
    """Apply *transform* to the store's data-input register value,
    producing the value the bypassed load's output register must hold.

    Mirrors, step for step, what a store-to-memory followed by a
    load-from-memory would do:

    1. the store masks its register to the stored bytes (``sts`` first
       converts the in-register double to the in-memory single pattern);
    2. the load extracts its bytes at the predicted shift;
    3. the load zero/sign-extends (``lds`` instead expands the single
       pattern back to the in-register representation).
    """
    value = store_reg_value & bits.WORD_MASK
    if transform.store_fp_convert:
        value = bits.double_bits_to_single_bits(value)
    extracted = bits.extract_bytes(value, transform.shift, transform.load_size)
    if transform.load_fp_convert:
        return bits.single_bits_to_double_bits(extracted)
    if transform.sign_extend:
        return bits.sign_extend(extracted, transform.load_size)
    return bits.zero_extend(extracted, transform.load_size)
