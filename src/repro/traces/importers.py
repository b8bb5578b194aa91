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
addresses accept decimal or ``0x`` hex.  Instructions are emitted through
a :class:`~repro.isa.trace.TraceBuilder`, so imported traces share the
synthetic generator's register conventions.  Field mapping into the
mini-ISA:

* compute events expand to ``iops`` single-cycle ALU operations plus
  ``flops`` 4-cycle COMPLEX operations on rotating registers;
* reads/writes become loads/stores; accesses wider than 8 bytes are split
  into 8-byte pieces (the mini-ISA's maximum access size);
* ``comm`` events become loads at the produced address — when the
  producing write is in the imported window,
  :func:`~repro.isa.trace.annotate_trace`
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

from repro.isa.trace import USE_REG, DynInst, TraceBuilder
from repro.isa.tracefile import TraceFormatError

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


def _pc(tid: int, kind: str, site: int) -> int:
    base = _THREAD_PC_BASE + (tid % 64) * _THREAD_PC_SPAN
    return base + _KIND_OFFSETS[kind] + 4 * (site % _SITES_PER_KIND)


def _access_pieces(addr: int, nbytes: int) -> Iterable[tuple[int, int]]:
    offset = 0
    while offset < nbytes:
        size = min(_MAX_ACCESS, nbytes - offset)
        yield addr + offset, size
        offset += size


def _comp(b: TraceBuilder, tid: int, eid: int, iops: int, flops: int) -> None:
    for i in range(iops):
        reg = b.def_reg()
        b.alu(_pc(tid, "comp", eid + i), reg, (reg,))
    for i in range(flops):
        reg = b.fp_reg()
        b.fp(_pc(tid, "fp", eid + i), reg, (reg,))


def _read(b: TraceBuilder, tid: int, kind: str, addr: int,
          nbytes: int) -> None:
    """A read or comm event: one load and one use per 8-byte piece."""
    for piece_addr, size in _access_pieces(addr, nbytes):
        pc = _pc(tid, kind, piece_addr >> 3)
        load = b.load(pc, piece_addr, size)
        b.alu(pc + 4, USE_REG, (load.dst,))


def _write(b: TraceBuilder, tid: int, addr: int, nbytes: int) -> None:
    for piece_addr, size in _access_pieces(addr, nbytes):
        b.store(_pc(tid, "write", piece_addr >> 3), piece_addr, size)


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
    b = TraceBuilder()
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
                _comp(b, tid, eid, iops, flops)
            elif kind in ("read", "write"):
                _require(fields, 5, path, lineno)
                addr = _parse_int(fields[3], "address", path, lineno)
                nbytes = _parse_int(fields[4], "byte count", path, lineno)
                if nbytes < 1:
                    raise TraceFormatError(
                        f"{path}: line {lineno}: byte count must be >= 1"
                    )
                if kind == "read":
                    _read(b, tid, "read", addr, nbytes)
                else:
                    _write(b, tid, addr, nbytes)
            elif kind == "comm":
                _require(fields, 6, path, lineno)
                addr = _parse_int(fields[4], "address", path, lineno)
                nbytes = _parse_int(fields[5], "byte count", path, lineno)
                if nbytes < 1:
                    raise TraceFormatError(
                        f"{path}: line {lineno}: byte count must be >= 1"
                    )
                _read(b, tid, "comm", addr, nbytes)
            elif kind == "branch":
                _require(fields, 4, path, lineno)
                taken = _parse_int(fields[3], "taken flag", path, lineno)
                b.branch(_pc(tid, "branch", eid), bool(taken),
                         srcs=(USE_REG,))
            elif kind == "call":
                _require(fields, 3, path, lineno)
                pc = _pc(tid, "call", eid)
                b.branch(pc, True, target=pc + 0x100, is_call=True)
            elif kind == "ret":
                _require(fields, 3, path, lineno)
                pc = _pc(tid, "ret", eid)
                b.branch(pc, True, target=pc + 4, is_return=True)
            else:
                raise TraceFormatError(
                    f"{path}: line {lineno}: unknown event kind {kind!r}"
                )
    return b.finish()
