"""Mini-ISA example programs.

Real (if small) programs assembled and functionally executed into annotated
traces.  They exercise the store-load communication idioms the paper's
mechanisms exist for:

* ``stack_spill`` -- call-heavy code spilling and reloading registers
  (classic short-distance full-word forwarding, the SMB sweet spot);
* ``struct_pack`` -- byte/halfword/word field writes read back as whole
  words (partial-word and multi-source communication);
* ``memcpy`` -- byte-wise copy with no in-window communication (the
  non-bypassing common case);
* ``fp_convert`` -- ``sts``/``lds`` single-precision round trips (the FP
  transformation of Section 3.5);
* ``histogram`` -- read-modify-write updates with data-dependent reuse
  distance.

Each builder returns an :class:`ExampleProgram`; :func:`build_trace` runs it
and returns the annotated trace plus final architectural state for checking.
Every program is also a trace source, ``prog.<name>``
(:data:`repro.traces.source.SOURCES`, which names and describes them
without loading this module), so ``repro run``, campaigns and ``repro
validate run`` take it like any benchmark id.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.isa.executor import ExecutionResult
    from repro.isa.trace import DynInst

#: Memory layout used by all example programs.
SRC_BASE = 0x2000
DST_BASE = 0x3000
STACK_BASE = 0x9000
TABLE_BASE = 0x4000


@dataclass
class ExampleProgram:
    """A named assembly program with initial state."""

    name: str
    description: str
    source: str
    setup_regs: dict[str, int] = field(default_factory=dict)
    setup_memory: dict[int, bytes] = field(default_factory=dict)
    max_instructions: int = 2_000_000


def build_trace(program: ExampleProgram) -> ExecutionResult:
    """Assemble, functionally execute, and annotate *program*."""
    # Imported here: filling in the prog.* sources loads neither.
    from repro.isa.assembler import assemble
    from repro.isa.executor import FunctionalExecutor
    from repro.isa.instructions import Register
    from repro.memory.main_memory import SparseMemory

    instructions = assemble(program.source)
    memory = SparseMemory()
    for addr, data in program.setup_memory.items():
        memory.load_bytes(addr, data)
    executor = FunctionalExecutor(instructions, memory)
    for reg_name, value in program.setup_regs.items():
        executor.set_reg(Register.parse(reg_name), value)
    return executor.run(max_instructions=program.max_instructions)


def memcpy_program(length: int = 256) -> ExampleProgram:
    """Byte-wise memcpy: loads never communicate with in-window stores."""
    source = """
        ; r2 = src, r3 = dst, r4 = end of src
        add  r10, r2, r0
        add  r11, r3, r0
    loop:
        lb   r12, 0(r10)
        sb   r12, 0(r11)
        addi r10, r10, 1
        addi r11, r11, 1
        bne  r10, r4, loop
        halt
    """
    payload = bytes((7 * i + 3) & 0xFF for i in range(length))
    return ExampleProgram(
        name="memcpy",
        description=f"byte-wise copy of {length} bytes",
        source=source,
        setup_regs={"r2": SRC_BASE, "r3": DST_BASE, "r4": SRC_BASE + length},
        setup_memory={SRC_BASE: payload},
    )


def stack_spill_program(calls: int = 64) -> ExampleProgram:
    """Call-heavy code: every call spills two registers and reloads them.

    The spill stores and reload loads communicate at distance 1-2 -- the
    canonical bypassing pattern NoSQ short-circuits through rename.
    """
    source = """
        ; r2 = stack pointer, r4 = remaining calls
        add  r20, r0, r0          ; accumulator
    loop:
        jal  ra, work
        addi r4, r4, -1
        bne  r4, r0, loop
        halt
    work:
        sd   ra, -8(r2)           ; spill return address
        sd   r20, -16(r2)         ; spill accumulator
        addi r2, r2, -16
        addi r20, r20, 5          ; "computation"
        mul  r21, r20, r20
        addi r2, r2, 16
        ld   r20, -16(r2)         ; reload accumulator (forwards!)
        addi r20, r20, 1
        ld   r1, -8(r2)           ; reload return address (forwards!)
        ret
    """
    return ExampleProgram(
        name="stack_spill",
        description=f"{calls} calls with register spill/reload",
        source=source,
        setup_regs={"r2": STACK_BASE, "r4": calls},
    )


def struct_pack_program(records: int = 64) -> ExampleProgram:
    """Writes a record as byte/halfword/word fields, then reads the whole
    8-byte record back: partial-word and multi-source communication."""
    source = """
        ; r2 = record cursor, r4 = remaining records
        add  r10, r0, r0
    loop:
        addi r10, r10, 17         ; field values
        sb   r10, 0(r2)           ; u8 field
        sb   r10, 1(r2)           ; u8 field
        sh   r10, 2(r2)           ; u16 field
        sw   r10, 4(r2)           ; u32 field
        ld   r12, 0(r2)           ; whole record: multi-source!
        lh   r13, 2(r2)           ; halfword field: single-source partial
        lbu  r14, 1(r2)           ; byte field
        add  r15, r12, r13
        add  r15, r15, r14
        addi r2, r2, 8
        addi r4, r4, -1
        bne  r4, r0, loop
        halt
    """
    return ExampleProgram(
        name="struct_pack",
        description=f"{records} records packed field-wise and read back",
        source=source,
        setup_regs={"r2": DST_BASE, "r4": records},
    )


def fp_convert_program(count: int = 64) -> ExampleProgram:
    """``sts``/``lds`` round trips: the single-precision conversion pair
    that partial-word bypassing must mimic (Section 3.5)."""
    source = """
        ; r2 = buffer cursor, r4 = remaining iterations
        fcvt f2, r4               ; f2 = (double) r4
    loop:
        fadd f2, f2, f2
        sts  f2, 0(r2)            ; store as 32-bit single
        lds  f3, 0(r2)            ; load+convert back (forwards!)
        fmul f4, f3, f3
        fcvt f2, r4
        addi r2, r2, 4
        addi r4, r4, -1
        bne  r4, r0, loop
        halt
    """
    return ExampleProgram(
        name="fp_convert",
        description=f"{count} sts/lds single-precision round trips",
        source=source,
        setup_regs={"r2": DST_BASE, "r4": count},
    )


def histogram_program(samples: int = 128, buckets: int = 8) -> ExampleProgram:
    """Histogram updates: load-add-store on a small table, giving
    data-dependent store-to-load reuse distances."""
    source = f"""
        ; r2 = sample cursor, r3 = table base, r4 = end of samples
    loop:
        lbu  r10, 0(r2)           ; sample
        andi r10, r10, {buckets - 1}
        slli r10, r10, 3
        add  r11, r3, r10         ; &table[bucket]
        ld   r12, 0(r11)          ; may forward from a recent update
        addi r12, r12, 1
        sd   r12, 0(r11)
        addi r2, r2, 1
        bne  r2, r4, loop
        halt
    """
    payload = bytes((13 * i + 5) & 0xFF for i in range(samples))
    return ExampleProgram(
        name="histogram",
        description=f"{samples} histogram updates over {buckets} buckets",
        source=source,
        setup_regs={
            "r2": SRC_BASE, "r3": TABLE_BASE, "r4": SRC_BASE + samples,
        },
        setup_memory={SRC_BASE: payload},
    )


def all_programs() -> list[ExampleProgram]:
    """The full example-program suite."""
    return [
        memcpy_program(),
        stack_spill_program(),
        struct_pack_program(),
        fp_convert_program(),
        histogram_program(),
    ]


def program_trace(name: str) -> list[DynInst]:
    """The annotated trace of the suite program *name* (the
    ``prog.<name>`` source)."""
    for program in all_programs():
        if program.name == name:
            return build_trace(program).trace
    raise KeyError(f"unknown mini-ISA program {name!r}")
