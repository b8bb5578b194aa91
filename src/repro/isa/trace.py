"""Dynamic-instruction trace format with ground-truth annotations.

A *trace* is the committed (correct-path) dynamic instruction stream of a
program, either produced by functionally executing a mini-ISA program
(:mod:`repro.isa.executor`) or written down by a :class:`TraceBuilder`:
the synthetic generator (:mod:`repro.workloads.generator`), the workload
zoo (:mod:`repro.workloads.zoo`) and the SynchroTrace importer
(:mod:`repro.traces.importers`) all emit through one.  The timing
simulator consumes traces.

Each load in a trace carries ground-truth store-load communication
annotations computed by :func:`annotate_trace`: the set of dynamic stores
that supply its bytes.  The annotations serve three purposes:

1. they reproduce the left half of Table 5 (in-window communication rates),
2. they let the timing model decide whether a speculatively executed load
   observed a correct value (a stale data-cache read, a wrong bypass, or a
   multi-source partial-store case), and
3. they provide the oracle for the idealized "perfect scheduling" and
   "perfect SMB" configurations (Figures 2 and 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.isa.opcodes import OpClass
from repro.pipeline.stats import TraceStats

#: Pseudo store sequence number meaning "the value comes from memory older
#: than the trace" (i.e. no in-trace store wrote the byte).
MEMORY_SOURCE = -1

#: ``(is_load, is_store, is_branch, port)`` per operation class, indexed by
#: ``op``: one tuple read per constructed instruction instead of three enum
#: member reads and an ``int()`` call (DESIGN.md §4, "enum members are
#: bound once").
_OP_TRAITS = tuple(
    (op is OpClass.LOAD, op is OpClass.STORE, op is OpClass.BRANCH, int(op))
    for op in OpClass
)

# Operation classes bound once: an enum member read costs about ten module
# global reads, and every emitted instruction needs one (DESIGN.md §4).
_ALU = OpClass.ALU
_COMPLEX = OpClass.COMPLEX
_LOAD = OpClass.LOAD
_STORE = OpClass.STORE
_BRANCH = OpClass.BRANCH

# Register conventions of built traces (integer registers 0-31, fp 32-63,
# as in repro.isa.instructions).
BASE_REG = 5                       # never written: always-ready base address
CONST_REG = 6                      # never written: standalone store data
DEF_REGS = tuple(range(8, 14))     # rotating ALU definition targets
USE_REG = 14                       # consumer of loaded values
CHAIN_REG = 15                     # serial ALU chain of the generator filler
LOAD_REGS = tuple(range(16, 24))   # rotating load destinations
FP_REGS = tuple(range(34, 42))     # f2..f9, rotating FP targets


@dataclass(slots=True)
class DynInst:
    """One dynamic instruction in a trace.

    ``seq`` is the dynamic sequence number (program order, dense from 0).
    ``store_seq`` numbers stores densely in program order, so it directly
    corresponds to the store sequence numbers (SSNs) the paper assigns at
    rename (Section 2); the timing model offsets it by the run's initial
    ``SSNrename`` when SSN counters wrap.
    """

    seq: int
    pc: int
    op: OpClass
    srcs: tuple[int, ...] = ()
    dst: int | None = None
    lat: int = 1
    # Memory operation fields.
    addr: int | None = None
    size: int = 0
    signed: bool = False
    fp_convert: bool = False
    # Control-flow fields.
    taken: bool = False
    target: int | None = None
    is_call: bool = False
    is_return: bool = False
    # Ground-truth annotations (filled in by annotate_trace).
    store_seq: int = -1
    src_stores: tuple[int, ...] = ()
    containing_store: int = MEMORY_SOURCE
    dist_insns: int = -1
    #: Unique in-trace source store seqs (MEMORY_SOURCE excluded),
    #: precomputed by annotate_trace.  The cycle loop consults this on
    #: every dispatched load; deriving it from ``src_stores`` each time
    #: dominated the dispatch profile.  Order is the historical
    #: ``set(src_stores)`` iteration order so producer tuples (and thus
    #: issue-port reservation order) are bit-identical to the pre-cached
    #: implementation.
    unique_stores: tuple[int, ...] = ()
    #: Path history the front end would hold just before this instruction
    #: decodes (Section 3.3's branch-direction + call-PC register), filled
    #: by annotate_trace.  -1 means "not yet computed"; the timing model
    #: fills it lazily for traces that skipped annotation.  Precomputing it
    #: per trace (instead of per Processor.run) shares the walk across all
    #: configurations simulating the same trace.
    path_hist: int = -1
    #: Operation-kind flags, precomputed at construction.  These are plain
    #: fields rather than properties because the cycle loop reads them for
    #: every instruction on every dispatch and commit.
    is_load: bool = field(init=False, default=False)
    is_store: bool = field(init=False, default=False)
    is_branch: bool = field(init=False, default=False)
    #: Issue-port index (``int(op)``), precomputed for the scheduler.
    port: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        self.is_load, self.is_store, self.is_branch, self.port = (
            _OP_TRAITS[self.op]
        )

    @property
    def communicates(self) -> bool:
        """True if any byte of this load was written by an in-trace store."""
        return self.is_load and any(s != MEMORY_SOURCE for s in self.src_stores)

    @property
    def is_multi_source(self) -> bool:
        """True if the load's bytes come from more than one dynamic store.

        This is the partial-store (e.g. two one-byte stores feeding a
        two-byte load) case that SMB cannot bypass and that NoSQ handles
        with *delay* (Section 3.3).
        """
        return self.is_load and len(set(self.src_stores)) > 1


def annotate_trace(trace: Sequence[DynInst]) -> list[DynInst]:
    """Fill the ground-truth store-load annotations of *trace* in place.

    Walks the stream in program order keeping, for every byte address, the
    dense sequence number of the last store that wrote it (plus the writing
    instruction's dynamic seq).  For each load it records:

    * ``src_stores`` -- per-byte writer store seqs (``MEMORY_SOURCE`` for
      bytes never written inside the trace),
    * ``containing_store`` -- the single store seq if exactly one store
      supplies every byte, else ``MEMORY_SOURCE``,
    * ``unique_stores`` -- the unique in-trace source store seqs (the
      timing model's per-dispatch working set),
    * ``dist_insns`` -- dynamic instruction distance to the youngest source
      store (used for the 128-instruction-window analysis of Table 5).

    Returns the same list for convenience.
    """
    # Imported here: repro.frontend.path_history imports this module.
    from repro.frontend.path_history import fill_path_history

    fill_path_history(trace)
    # byte addr -> (store_seq, inst_seq).  Every byte a store writes shares
    # one tuple, so a load whose bytes have one writer (or none) is found
    # by a single list.count over its bytes' writers.
    last_writer: dict[int, tuple[int, int]] = {}
    writer_of = last_writer.get
    update = last_writer.update
    fromkeys = dict.fromkeys
    store_count = 0
    for inst in trace:
        if inst.is_store:
            inst.store_seq = store_count
            addr = inst.addr
            update(fromkeys(range(addr, addr + inst.size),
                            (store_count, inst.seq)))
            store_count += 1
        elif inst.is_load:
            addr = inst.addr
            size = inst.size
            writers = list(map(writer_of, range(addr, addr + size)))
            first = writers[0] if writers else None
            if writers.count(first) == size:
                # Every byte has the same writer (or none): the common case.
                if first is None:
                    inst.src_stores = (MEMORY_SOURCE,) * size
                    inst.containing_store = MEMORY_SOURCE
                    inst.unique_stores = ()
                    inst.dist_insns = -1
                else:
                    store = first[0]
                    inst.src_stores = (store,) * size
                    inst.containing_store = store
                    inst.unique_stores = (store,)
                    inst.dist_insns = inst.seq - first[1]
                continue
            youngest_inst_seq = -1
            sources = []
            for writer in writers:
                if writer is None:
                    sources.append(MEMORY_SOURCE)
                else:
                    sources.append(writer[0])
                    youngest_inst_seq = max(youngest_inst_seq, writer[1])
            inst.src_stores = tuple(sources)
            # Bytes have at least two distinct writers here, so no single
            # store contains the load.
            inst.containing_store = MEMORY_SOURCE
            inst.unique_stores = tuple(
                s for s in set(sources) if s != MEMORY_SOURCE
            )
            inst.dist_insns = (
                inst.seq - youngest_inst_seq if youngest_inst_seq >= 0 else -1
            )
    return list(trace)


def reindex_trace(insts: Sequence[DynInst]) -> list[DynInst]:
    """Re-number and re-annotate a copy of an instruction sequence.

    Each instruction is rebuilt from its raw fields (op, registers,
    access, control flow) with ``seq`` dense from 0, and every annotation
    is re-derived, so any subsequence of a trace is a well-formed trace
    again and a loaded trace can be checked against fresh annotations.
    """
    rebuilt = [
        DynInst(
            seq=i, pc=inst.pc, op=inst.op, srcs=inst.srcs, dst=inst.dst,
            lat=inst.lat, addr=inst.addr, size=inst.size,
            signed=inst.signed, fp_convert=inst.fp_convert,
            taken=inst.taken, target=inst.target, is_call=inst.is_call,
            is_return=inst.is_return,
        )
        for i, inst in enumerate(insts)
    ]
    return annotate_trace(rebuilt)


class TraceBuilder:
    """Writes a generated trace down, one instruction per call.

    Every producer that synthesizes instructions (the profile generator,
    the zoo families, the SynchroTrace importer) emits through a builder,
    so they share one register convention and one rotation rule: the
    def, load and FP cursors hand out the register they point at, then
    move one slot on.  Instructions are numbered densely as they are
    emitted; :meth:`finish` annotates the trace and returns it.

    ``loads``, ``stores`` and ``branches`` count the instructions of each
    kind emitted so far (the generator steers its filler by them).
    """

    def __init__(self) -> None:
        self.trace: list[DynInst] = []
        self.loads = self.stores = self.branches = 0
        #: Index of the register each rotation hands out next.
        self.next_def = self.next_load = self.next_fp = 0

    def def_reg(self) -> int:
        reg = DEF_REGS[self.next_def]
        self.next_def = (self.next_def + 1) % len(DEF_REGS)
        return reg

    def fp_reg(self) -> int:
        reg = FP_REGS[self.next_fp]
        self.next_fp = (self.next_fp + 1) % len(FP_REGS)
        return reg

    def alu(self, pc: int, dst: int | None = None,
            srcs: tuple[int, ...] = ()) -> DynInst:
        """A 1-cycle ALU op; *dst* defaults to the next def register."""
        if dst is None:
            dst = self.def_reg()
        trace = self.trace
        inst = DynInst(seq=len(trace), pc=pc, op=_ALU, srcs=srcs, dst=dst,
                       lat=1)
        trace.append(inst)
        return inst

    def fp(self, pc: int, dst: int, srcs: tuple[int, ...] = ()) -> DynInst:
        """A 4-cycle COMPLEX (floating-point) op."""
        trace = self.trace
        inst = DynInst(seq=len(trace), pc=pc, op=_COMPLEX, srcs=srcs,
                       dst=dst, lat=4)
        trace.append(inst)
        return inst

    def load(self, pc: int, addr: int, size: int = 8, *,
             signed: bool = False, fp_convert: bool = False,
             base: int = BASE_REG) -> DynInst:
        """A load into the next load register."""
        dst = LOAD_REGS[self.next_load]
        self.next_load = (self.next_load + 1) % len(LOAD_REGS)
        self.loads += 1
        trace = self.trace
        inst = DynInst(
            seq=len(trace), pc=pc, op=_LOAD, srcs=(base,), dst=dst, lat=1,
            addr=addr, size=size, signed=signed, fp_convert=fp_convert,
        )
        trace.append(inst)
        return inst

    def store(self, pc: int, addr: int, size: int = 8,
              data_reg: int = CONST_REG, *,
              fp_convert: bool = False) -> DynInst:
        """A store of *data_reg* (the never-written constant by default)."""
        self.stores += 1
        trace = self.trace
        inst = DynInst(
            seq=len(trace), pc=pc, op=_STORE, srcs=(BASE_REG, data_reg),
            lat=1, addr=addr, size=size, fp_convert=fp_convert,
        )
        trace.append(inst)
        return inst

    def branch(self, pc: int, taken: bool, *, target: int | None = None,
               srcs: tuple[int, ...] = (), is_call: bool = False,
               is_return: bool = False) -> DynInst:
        """A branch, call or return; *target* defaults to ``pc + 0x20``."""
        self.branches += 1
        trace = self.trace
        inst = DynInst(
            seq=len(trace), pc=pc, op=_BRANCH, srcs=srcs, lat=1,
            taken=taken, target=pc + 0x20 if target is None else target,
            is_call=is_call, is_return=is_return,
        )
        trace.append(inst)
        return inst

    def finish(self) -> list[DynInst]:
        """The emitted trace, annotated."""
        return annotate_trace(self.trace)


def communication_stats(
    trace: Iterable[DynInst], window: int = 128, store_sizes: dict[int, int] | None = None
) -> TraceStats:
    """Compute Table 5 (left half) statistics for *trace*.

    A load counts as *communicating* if any source store lies within
    ``window`` dynamic instructions.  It counts as *partial-word*
    communication if, additionally, either the load or (any of) the source
    stores accesses fewer than eight bytes.  ``store_sizes`` maps store seq
    to access size; if omitted it is reconstructed from the trace.
    """
    trace = list(trace)
    if store_sizes is None:
        store_sizes = {
            inst.store_seq: inst.size for inst in trace if inst.is_store
        }
    stats = TraceStats(window=window)
    for inst in trace:
        if inst.is_store:
            stats.stores += 1
        elif inst.is_branch:
            stats.branches += 1
        elif inst.is_load:
            stats.loads += 1
            # unique_stores is non-empty exactly when the load communicates.
            sources = inst.unique_stores
            if not sources:
                continue
            if inst.dist_insns < 0 or inst.dist_insns > window:
                continue
            stats.communicating_loads += 1
            # A communicating load is single-source exactly when one store
            # contains it.
            if inst.containing_store == MEMORY_SOURCE:
                stats.multi_source_loads += 1
            if inst.size < 8 or any(
                store_sizes.get(s, 8) < 8 for s in sources
            ):
                stats.partial_word_loads += 1
    return stats
