"""Mini-ISA substrate: a small 64-bit RISC instruction set.

The paper evaluates NoSQ on the Alpha AXP user-level ISA.  This package
provides a compact substitute that exposes everything the NoSQ mechanisms
observe: 1/2/4/8-byte signed and unsigned loads and stores, a single-precision
floating-point convert-on-load/store pair (the ``lds``/``sts`` analogue used
by partial-word bypassing), ALU and FP operations with distinct issue
classes, and branches/calls that feed path history.

The package contains:

* :mod:`repro.isa.opcodes` -- opcode and operation-class definitions,
* :mod:`repro.isa.trace` -- the dynamic-instruction trace format shared by
  the functional executor, the synthetic workload generator, and the timing
  simulator, including ground-truth store-load annotations,
* :mod:`repro.isa.instructions` -- static instruction representation,
* :mod:`repro.isa.assembler` -- a tiny text assembler for example programs,
* :mod:`repro.isa.executor` -- a functional executor that runs a program and
  emits an annotated dynamic trace.
"""

from repro._lazy import lazy_exports

#: Public name -> the submodule defining it, loaded on first access.
_EXPORTS = {
    "Opcode": "opcodes",
    "OpClass": "opcodes",
    "EXEC_LATENCY": "opcodes",
    "DynInst": "trace",
    "MEMORY_SOURCE": "trace",
    "annotate_trace": "trace",
    "Instruction": "instructions",
    "Register": "instructions",
    "NUM_INT_REGS": "instructions",
    "NUM_FP_REGS": "instructions",
    "AssemblerError": "assembler",
    "assemble": "assembler",
    "ExecutionResult": "executor",
    "FunctionalExecutor": "executor",
    "TraceFormatError": "tracefile",
    "load_trace": "tracefile",
    "save_trace": "tracefile",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
