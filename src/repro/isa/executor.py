"""Functional executor: runs a mini-ISA program and emits an annotated
dynamic-instruction trace for the timing simulator.

The executor is the reference architectural model.  Property-based tests
compare its final state against the timing simulator's committed state to
verify that NoSQ's verification machinery (SVW-filtered re-execution) never
lets a wrong value commit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa import bits, semantics
from repro.isa.assembler import INST_BYTES
from repro.isa.instructions import Instruction, NUM_ARCH_REGS, REG_ZERO
from repro.isa.opcodes import (
    EXEC_LATENCY,
    MEM_SIZE,
    Opcode,
    OpClass,
    SIGNED_LOADS,
    FP_CONVERT_OPS,
    op_class,
)
from repro.isa.trace import DynInst, annotate_trace
from repro.memory.main_memory import SparseMemory


class ExecutionLimitExceeded(RuntimeError):
    """Raised when a program runs past the configured instruction limit."""


@dataclass
class ExecutionResult:
    """Outcome of a functional run."""

    trace: list[DynInst]
    registers: list[int]
    memory: SparseMemory
    halted: bool
    instructions: int = field(init=False)

    def __post_init__(self) -> None:
        self.instructions = len(self.trace)

    def reg(self, index: int) -> int:
        return self.registers[index]


class FunctionalExecutor:
    """Executes a static program, producing architectural state and a trace.

    Integer registers hold unsigned 64-bit values; floating-point registers
    hold 64-bit IEEE754 bit patterns (the "in-register representation" the
    paper's partial-word discussion refers to).
    """

    def __init__(self, program: list[Instruction], memory: SparseMemory | None = None):
        if not program:
            raise ValueError("program must contain at least one instruction")
        self.memory = memory if memory is not None else SparseMemory()
        self.registers = [0] * NUM_ARCH_REGS
        self._by_pc = {inst.pc: inst for inst in program}
        self._entry_pc = program[0].pc

    def set_reg(self, index: int, value: int) -> None:
        self.registers[index] = value & bits.WORD_MASK

    def run(self, max_instructions: int = 1_000_000) -> ExecutionResult:
        """Execute until HALT, fall-off-the-end, or the instruction limit."""
        pc = self._entry_pc
        trace: list[DynInst] = []
        halted = False
        while pc in self._by_pc:
            if len(trace) >= max_instructions:
                raise ExecutionLimitExceeded(
                    f"exceeded {max_instructions} dynamic instructions"
                )
            inst = self._by_pc[pc]
            if inst.opcode is Opcode.HALT:
                halted = True
                break
            dyn, next_pc = self._step(inst, len(trace))
            trace.append(dyn)
            pc = next_pc
        annotate_trace(trace)
        return ExecutionResult(
            trace=trace, registers=list(self.registers), memory=self.memory,
            halted=halted,
        )

    # -- single-instruction semantics -------------------------------------

    def _step(self, inst: Instruction, seq: int) -> tuple[DynInst, int]:
        regs = self.registers
        opc = inst.opcode
        cls = op_class(opc)
        next_pc = inst.pc + INST_BYTES

        srcs = tuple(r for r in (inst.rs1, inst.rs2) if r is not None)
        dyn = DynInst(
            seq=seq, pc=inst.pc, op=cls, srcs=srcs, dst=inst.rd,
            lat=EXEC_LATENCY[opc],
        )

        if cls is OpClass.LOAD:
            addr = (regs[inst.rs1] + inst.imm) & bits.WORD_MASK
            size = MEM_SIZE[opc]
            raw = self.memory.read(addr, size)
            value = semantics.load_from_memory(
                raw, size, signed=opc in SIGNED_LOADS,
                fp_convert=opc in FP_CONVERT_OPS,
            )
            self._write_reg(inst.rd, value)
            dyn.addr, dyn.size = addr, size
            dyn.signed = opc in SIGNED_LOADS
            dyn.fp_convert = opc in FP_CONVERT_OPS
        elif cls is OpClass.STORE:
            addr = (regs[inst.rs1] + inst.imm) & bits.WORD_MASK
            size = MEM_SIZE[opc]
            value = semantics.store_to_memory(
                regs[inst.rs2], size, fp_convert=opc in FP_CONVERT_OPS
            )
            self.memory.write(addr, value, size)
            dyn.addr, dyn.size = addr, size
            dyn.fp_convert = opc in FP_CONVERT_OPS
        elif cls is OpClass.BRANCH:
            next_pc, dyn = self._control(inst, dyn, next_pc)
        elif cls is OpClass.ALU or cls is OpClass.COMPLEX:
            self._write_reg(inst.rd, self._alu(inst))
        # NOP: nothing to do.

        return dyn, next_pc

    def _control(self, inst: Instruction, dyn: DynInst, fallthrough: int):
        regs = self.registers
        opc = inst.opcode
        if opc in (Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE):
            a = bits.to_signed(regs[inst.rs1])
            b = bits.to_signed(regs[inst.rs2])
            taken = {
                Opcode.BEQ: a == b,
                Opcode.BNE: a != b,
                Opcode.BLT: a < b,
                Opcode.BGE: a >= b,
            }[opc]
            dyn.taken = taken
            dyn.target = inst.imm
            return (inst.imm if taken else fallthrough), dyn
        if opc is Opcode.JAL:
            self._write_reg(inst.rd, fallthrough)
            dyn.taken, dyn.target, dyn.is_call = True, inst.imm, True
            return inst.imm, dyn
        if opc is Opcode.JALR:
            target = regs[inst.rs1] & ~0x3
            self._write_reg(inst.rd, fallthrough)
            dyn.taken, dyn.target, dyn.is_call = True, target, True
            return target, dyn
        if opc is Opcode.RET:
            target = regs[inst.rs1] & ~0x3
            dyn.taken, dyn.target, dyn.is_return = True, target, True
            return target, dyn
        raise AssertionError(f"unhandled control opcode {opc}")

    def _alu(self, inst: Instruction) -> int:
        regs = self.registers
        opc = inst.opcode
        a = regs[inst.rs1] if inst.rs1 is not None else 0
        b = regs[inst.rs2] if inst.rs2 is not None else 0
        imm = inst.imm
        if opc is Opcode.ADD:
            return (a + b) & bits.WORD_MASK
        if opc is Opcode.SUB:
            return (a - b) & bits.WORD_MASK
        if opc is Opcode.AND:
            return a & b
        if opc is Opcode.OR:
            return a | b
        if opc is Opcode.XOR:
            return a ^ b
        if opc is Opcode.SLL:
            return (a << (b & 63)) & bits.WORD_MASK
        if opc is Opcode.SRL:
            return a >> (b & 63)
        if opc is Opcode.SRA:
            return bits.to_unsigned(bits.to_signed(a) >> (b & 63))
        if opc is Opcode.SLT:
            return 1 if bits.to_signed(a) < bits.to_signed(b) else 0
        if opc is Opcode.ADDI:
            return (a + imm) & bits.WORD_MASK
        if opc is Opcode.ANDI:
            return a & bits.to_unsigned(imm)
        if opc is Opcode.ORI:
            return a | bits.to_unsigned(imm)
        if opc is Opcode.XORI:
            return a ^ bits.to_unsigned(imm)
        if opc is Opcode.SLLI:
            return (a << (imm & 63)) & bits.WORD_MASK
        if opc is Opcode.SRLI:
            return a >> (imm & 63)
        if opc is Opcode.LUI:
            return (imm << 16) & bits.WORD_MASK
        if opc is Opcode.MUL:
            return (a * b) & bits.WORD_MASK
        if opc is Opcode.DIV:
            sb = bits.to_signed(b)
            if sb == 0:
                return bits.WORD_MASK
            return bits.to_unsigned(int(bits.to_signed(a) / sb))
        # Floating point: operate on 64-bit IEEE754 patterns.
        fa, fb = bits.bits_to_double(a), bits.bits_to_double(b)
        if opc is Opcode.FADD:
            return bits.double_to_bits(fa + fb)
        if opc is Opcode.FSUB:
            return bits.double_to_bits(fa - fb)
        if opc is Opcode.FMUL:
            return bits.double_to_bits(fa * fb)
        if opc is Opcode.FDIV:
            return bits.double_to_bits(fa / fb if fb else float("inf"))
        if opc is Opcode.FCVT:
            # int (register pattern) -> double
            return bits.double_to_bits(float(bits.to_signed(a)))
        raise AssertionError(f"unhandled ALU opcode {opc}")

    def _write_reg(self, index: int | None, value: int) -> None:
        if index is None or index == REG_ZERO:
            return
        self.registers[index] = value & bits.WORD_MASK
