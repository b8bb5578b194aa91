"""External trace importers.

The simulator's native inputs are annotated :class:`~repro.isa.trace.DynInst`
streams; importers convert foreign event traces into that form so any
trace-capture tool can drive the timing model.  The reference importer
understands SynchroTrace-style event traces (Nilakantan et al., ISPASS
2015): architecture-agnostic per-thread streams of compute, memory and
dependency events, replayed by gem5's SynchroTrace tester.

Event grammar (one event per line, fields comma-separated; ``#`` starts a
comment, blank lines are skipped; files may be gzip-compressed)::

    <eid>,<tid>,comp,<iops>,<flops>        compute: iops ALU + flops FP ops
    <eid>,<tid>,read,<addr>,<bytes>        local memory read
    <eid>,<tid>,write,<addr>,<bytes>       local memory write
    <eid>,<tid>,comm,<from_eid>,<addr>,<bytes>
                                           dependency read: consumes bytes a
                                           prior write event produced
    <eid>,<tid>,branch,<taken>             control flow (taken: 0 or 1)
    <eid>,<tid>,call                       function entry
    <eid>,<tid>,ret                        function return

``eid`` is the (monotonic, per-thread) event id and ``tid`` the thread id;
addresses accept decimal or ``0x`` hex.  Field mapping into the mini-ISA:

* compute events expand to ``iops`` single-cycle ALU operations plus
  ``flops`` 4-cycle COMPLEX operations on rotating registers;
* reads/writes become loads/stores; accesses wider than 8 bytes are split
  into 8-byte pieces (the mini-ISA's maximum access size);
* ``comm`` events become loads at the produced address — when the
  producing write is in the imported window, :func:`annotate_trace`
  recovers the store-load dependency exactly as it does for native
  traces, so the bypassing machinery sees real communication;
* branches/calls/returns map onto the BRANCH class with the call/return
  flags driving the simulated return-address stack.

The format carries no program counters (it is architecture-agnostic), so
the importer synthesizes stable ones: each thread owns a PC region and
each event kind a sub-region, with memory PCs keyed by the accessed
address block.  Predictors therefore see a realistic, finite static-site
population, as they would replaying the original binary.

Multi-threaded traces are serialized in file order onto the simulator's
single hardware context (the standard single-core replay of a
multi-threaded capture).
"""

from __future__ import annotations

import gzip
from pathlib import Path
from typing import Iterable

from repro.isa.opcodes import OpClass
from repro.isa.trace import DynInst, annotate_trace
from repro.isa.tracefile import TraceFormatError

#: Base register conventions (match the synthetic generator's).
# Operation classes bound once: an enum member read costs about ten module
# global reads, and every emitted instruction needs one (DESIGN.md §4).
_ALU = OpClass.ALU
_COMPLEX = OpClass.COMPLEX
_LOAD = OpClass.LOAD
_STORE = OpClass.STORE
_BRANCH = OpClass.BRANCH

_BASE_REG = 5
_CONST_REG = 6
_DEF_REGS = tuple(range(8, 14))
_USE_REG = 14
_LOAD_REGS = tuple(range(16, 24))
_FP_REGS = tuple(range(34, 42))

#: Per-thread PC region spacing and per-kind sub-regions.
_THREAD_PC_BASE = 0x0040_0000
_THREAD_PC_SPAN = 0x0002_0000
_KIND_OFFSETS = {
    "comp": 0x0000, "fp": 0x2000, "read": 0x4000, "write": 0x6000,
    "comm": 0x8000, "branch": 0xA000, "call": 0xC000, "ret": 0xE000,
}
#: Distinct synthesized PCs per (thread, kind) sub-region.
_SITES_PER_KIND = 256

#: Maximum single access size of the mini-ISA.
_MAX_ACCESS = 8


class _Builder:
    """Accumulates DynInsts with the importer's register/PC conventions."""

    def __init__(self) -> None:
        self.trace: list[DynInst] = []
        self._def_index = 0
        self._load_index = 0
        self._fp_index = 0

    def _pc(self, tid: int, kind: str, site: int) -> int:
        base = _THREAD_PC_BASE + (tid % 64) * _THREAD_PC_SPAN
        return base + _KIND_OFFSETS[kind] + 4 * (site % _SITES_PER_KIND)

    def _emit(self, inst: DynInst) -> DynInst:
        inst.seq = len(self.trace)
        self.trace.append(inst)
        return inst

    def comp(self, tid: int, eid: int, iops: int, flops: int) -> None:
        for i in range(iops):
            dst = _DEF_REGS[self._def_index]
            self._def_index = (self._def_index + 1) % len(_DEF_REGS)
            self._emit(DynInst(
                seq=0, pc=self._pc(tid, "comp", eid + i), op=_ALU,
                srcs=(dst,), dst=dst, lat=1,
            ))
        for i in range(flops):
            reg = _FP_REGS[self._fp_index]
            self._fp_index = (self._fp_index + 1) % len(_FP_REGS)
            self._emit(DynInst(
                seq=0, pc=self._pc(tid, "fp", eid + i), op=_COMPLEX,
                srcs=(reg,), dst=reg, lat=4,
            ))

    def _access_pieces(self, addr: int, nbytes: int) -> Iterable[tuple[int, int]]:
        offset = 0
        while offset < nbytes:
            size = min(_MAX_ACCESS, nbytes - offset)
            yield addr + offset, size
            offset += size

    def read(self, tid: int, kind: str, addr: int, nbytes: int) -> None:
        for piece_addr, size in self._access_pieces(addr, nbytes):
            dst = _LOAD_REGS[self._load_index]
            self._load_index = (self._load_index + 1) % len(_LOAD_REGS)
            pc = self._pc(tid, kind, piece_addr >> 3)
            self._emit(DynInst(
                seq=0, pc=pc, op=_LOAD, srcs=(_BASE_REG,), dst=dst,
                lat=1, addr=piece_addr, size=size,
            ))
            self._emit(DynInst(
                seq=0, pc=pc + 4, op=_ALU, srcs=(dst,), dst=_USE_REG,
                lat=1,
            ))

    def write(self, tid: int, addr: int, nbytes: int) -> None:
        for piece_addr, size in self._access_pieces(addr, nbytes):
            self._emit(DynInst(
                seq=0, pc=self._pc(tid, "write", piece_addr >> 3),
                op=_STORE, srcs=(_BASE_REG, _CONST_REG), lat=1,
                addr=piece_addr, size=size,
            ))

    def branch(self, tid: int, eid: int, taken: bool) -> None:
        pc = self._pc(tid, "branch", eid)
        self._emit(DynInst(
            seq=0, pc=pc, op=_BRANCH, srcs=(_USE_REG,), lat=1,
            taken=taken, target=pc + 0x20,
        ))

    def call(self, tid: int, eid: int) -> None:
        pc = self._pc(tid, "call", eid)
        self._emit(DynInst(
            seq=0, pc=pc, op=_BRANCH, lat=1, taken=True,
            target=pc + 0x100, is_call=True,
        ))

    def ret(self, tid: int, eid: int) -> None:
        pc = self._pc(tid, "ret", eid)
        self._emit(DynInst(
            seq=0, pc=pc, op=_BRANCH, lat=1, taken=True,
            target=pc + 4, is_return=True,
        ))


def _parse_int(field: str, what: str, path: Path, lineno: int) -> int:
    try:
        return int(field, 0)
    except ValueError:
        raise TraceFormatError(
            f"{path}: line {lineno}: {what} is not an integer: {field!r}"
        ) from None


def _require(fields: list[str], count: int, path: Path, lineno: int) -> None:
    if len(fields) != count:
        raise TraceFormatError(
            f"{path}: line {lineno}: expected {count} fields, "
            f"got {len(fields)}: {','.join(fields)!r}"
        )


def import_synchrotrace(path: str | Path) -> list[DynInst]:
    """Convert a SynchroTrace-style event trace into an annotated trace.

    Raises :class:`~repro.isa.tracefile.TraceFormatError` with the
    offending line number on malformed input.
    """
    path = Path(path)
    opener = gzip.open if path.suffix == ".gz" else open
    builder = _Builder()
    try:
        stream = opener(path, "rt", encoding="utf-8")
    except OSError as exc:
        raise TraceFormatError(f"{path}: cannot open: {exc}") from exc
    with stream:
        for lineno, line in enumerate(stream, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            fields = [f.strip() for f in line.split(",")]
            if len(fields) < 3:
                raise TraceFormatError(
                    f"{path}: line {lineno}: expected "
                    f"'<eid>,<tid>,<event>,...', got {line!r}"
                )
            eid = _parse_int(fields[0], "event id", path, lineno)
            tid = _parse_int(fields[1], "thread id", path, lineno)
            kind = fields[2]
            if kind == "comp":
                _require(fields, 5, path, lineno)
                iops = _parse_int(fields[3], "iops", path, lineno)
                flops = _parse_int(fields[4], "flops", path, lineno)
                if iops < 0 or flops < 0:
                    raise TraceFormatError(
                        f"{path}: line {lineno}: negative op count"
                    )
                builder.comp(tid, eid, iops, flops)
            elif kind in ("read", "write"):
                _require(fields, 5, path, lineno)
                addr = _parse_int(fields[3], "address", path, lineno)
                nbytes = _parse_int(fields[4], "byte count", path, lineno)
                if nbytes < 1:
                    raise TraceFormatError(
                        f"{path}: line {lineno}: byte count must be >= 1"
                    )
                if kind == "read":
                    builder.read(tid, "read", addr, nbytes)
                else:
                    builder.write(tid, addr, nbytes)
            elif kind == "comm":
                _require(fields, 6, path, lineno)
                addr = _parse_int(fields[4], "address", path, lineno)
                nbytes = _parse_int(fields[5], "byte count", path, lineno)
                if nbytes < 1:
                    raise TraceFormatError(
                        f"{path}: line {lineno}: byte count must be >= 1"
                    )
                builder.read(tid, "comm", addr, nbytes)
            elif kind == "branch":
                _require(fields, 4, path, lineno)
                taken = _parse_int(fields[3], "taken flag", path, lineno)
                builder.branch(tid, eid, bool(taken))
            elif kind == "call":
                _require(fields, 3, path, lineno)
                builder.call(tid, eid)
            elif kind == "ret":
                _require(fields, 3, path, lineno)
                builder.ret(tid, eid)
            else:
                raise TraceFormatError(
                    f"{path}: line {lineno}: unknown event kind {kind!r}"
                )
    return annotate_trace(builder.trace)
