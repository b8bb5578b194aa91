"""Versioned binary packed trace format (v2), the one trace file format.

:mod:`repro.isa.tracefile` saves and loads traces through this module.
v2 is a struct-packed binary container:

::

    +--------------------------------------------------------------+
    | header (32 B): magic "RTRC", version=2, instruction count,   |
    |                records per block                             |
    +--------------------------------------------------------------+
    | block frame 0: comp_len, record_count, crc32, zlib payload   |
    | block frame 1: ...                                           |
    +--------------------------------------------------------------+
    | index footer: (offset, record_count, comp_len) per block     |
    +--------------------------------------------------------------+
    | trailer (16 B): index offset, index entries, magic "CRTR"    |
    +--------------------------------------------------------------+

The index footer names every block's file offset and record count, which
is what makes :func:`read_trace` a true stream (one block resident at a
time) and gives :func:`trace_info` its per-file statistics without
decoding any payload.  Blocks are a framing and integrity unit (each
frame carries its own crc32), not random-access points: the record codec
keeps delta state across block boundaries, so decoding is sequential.

Inside a block, records are stored *columnar*: each field is packed into
its own contiguous stream and the streams are concatenated (a table of
stream lengths leads the block) before the whole block is
zlib-compressed.  Grouping like with like is worth ~25% over row-packed
records — the op column is long runs of identical bytes, the pc-delta
column repeats each loop body's signature, and the few genuinely random
address bits stay quarantined in one stream.

Per-record fields (*varints* are LEB128, signed values zigzag-encoded)::

    u16 flags   bit 0 signed        bit 5 has_dst
                bit 1 fp_convert    bit 6 has_addr
                bit 2 taken         bit 7 has_target
                bit 3 is_call       bit 8 has_store_seq
                bit 4 is_return     bit 9 has_dist
                                    bit 10 uniform src_stores
    u8  op, u8 lat, u8 size, u8 nsrcs, u8 nsrc_stores
    svarint pc delta (from the previous record's pc)
    [u8 dst] [svarint addr delta (from the previous memory address)]
    [svarint target - pc] [uvarint dist_insns]
    nsrcs x u8 srcs
    src_stores as *store distances*: ``0`` encodes MEMORY_SOURCE and
    ``d >= 1`` encodes "the d-th most recent store"; one distance when
    every byte has the same source (bit 10), else one per byte

Store sequence numbers are dense in program order, so ``store_seq`` needs
no bytes at all (bit 8 plus a running counter reconstructs it), and the
store-distance encoding keeps in-window communication — the common case —
in one-byte varints.  ``seq`` is implicit (dense from 0, in file order)
and the derived annotations ``containing_store``/``unique_stores``/
``path_hist`` are recomputed on load, so a reloaded trace is
bit-identical to the annotated original.

The reader decodes a block column by column rather than record by
record: the length table splits the block once, one-byte columns are
indexed in place, each varint column is decoded into an int list in one
pass, and one loop zips the columns into ``DynInst`` records.  Every
column must be consumed exactly, so a damaged column table fails loudly
(:class:`TraceFormatError` naming the block and the column) instead of
decoding into a different trace.
"""

from __future__ import annotations

import os
import struct
import zlib
from pathlib import Path
from typing import Iterable, Iterator

from repro.isa.opcodes import OpClass
from repro.isa.trace import MEMORY_SOURCE, DynInst
from repro.isa.tracefile import TraceFormatError

#: Leading magic of a v2 binary trace file.
MAGIC = b"RTRC"
#: Trailing magic closing the trailer.
TRAILER_MAGIC = b"CRTR"
#: Format version written into the header.
BINARY_VERSION = 2
#: Records per compressed block (the streaming granularity).
DEFAULT_BLOCK_RECORDS = 4096

_HEADER = struct.Struct("<4sHHQI12x")          # magic, ver, flags, count, blk
_FRAME = struct.Struct("<III")                 # comp_len, records, crc32
_INDEX_ENTRY = struct.Struct("<QII")           # offset, records, comp_len
_TRAILER = struct.Struct("<QI4s")              # index offset, entries, magic

#: Column streams of a block, in on-disk order.  PCs are stored as a
#: (page reference, in-page offset) pair over a dictionary of 256-byte
#: pages built as the trace is walked: real instruction streams revisit a
#: small static code footprint, so page references collapse to one byte
#: and repeat in template-length runs the block compressor folds away.
_COLUMNS = (
    "flags", "op", "lat", "size", "nsrcs", "nstores",
    "pcpage", "pcoff", "pcnew", "dst", "addr", "target", "dist",
    "srcs", "sources",
)

_F_SIGNED = 1 << 0
_F_FP_CONVERT = 1 << 1
_F_TAKEN = 1 << 2
_F_IS_CALL = 1 << 3
_F_IS_RETURN = 1 << 4
_F_HAS_DST = 1 << 5
_F_HAS_ADDR = 1 << 6
_F_HAS_TARGET = 1 << 7
_F_HAS_STORE_SEQ = 1 << 8
_F_HAS_DIST = 1 << 9
_F_UNIFORM_SOURCES = 1 << 10


def _write_uvarint(out: bytearray, value: int) -> None:
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _write_svarint(out: bytearray, value: int) -> None:
    _write_uvarint(out, (value << 1) ^ (value >> 63) if value >= 0
                   else ((-value) << 1) - 1)


def _read_uvarint(payload: bytes, offset: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        byte = payload[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7


def _uvarints(stream: bytes) -> list[int]:
    """Decode a whole column of uvarints in one pass."""
    if stream.isascii():
        # Every byte below 0x80: each byte is one complete value.
        return list(stream)
    values: list[int] = []
    append = values.append
    stream_bytes = iter(stream)
    for byte in stream_bytes:
        if byte < 0x80:
            append(byte)
            continue
        value = byte - 0x80
        shift = 7
        for byte in stream_bytes:
            if byte < 0x80:
                append(value | byte << shift)
                break
            value |= (byte - 0x80) << shift
            shift += 7
        else:
            raise ValueError("ends inside a varint")
    return values


def _svarints(stream: bytes) -> list[int]:
    """Decode a whole column of zigzag svarints in one pass."""
    return [(raw >> 1) ^ -(raw & 1) for raw in _uvarints(stream)]


class _Codec:
    """Delta state shared by consecutive records (carried across blocks)."""

    __slots__ = ("addr", "stores", "page_ids", "pages")

    def __init__(self) -> None:
        self.addr = 0
        self.stores = 0        # stores encoded/decoded so far
        self.page_ids: dict[int, int] = {}   # encode: pc page -> id
        self.pages: list[int] = []           # decode: id -> pc page


class _Columns:
    """One bytearray per column stream, reset per block."""

    __slots__ = _COLUMNS

    def __init__(self) -> None:
        for name in _COLUMNS:
            setattr(self, name, bytearray())

    def assemble(self) -> bytes:
        """Length table (uvarints, one per column) + concatenated streams."""
        payload = bytearray()
        streams = [getattr(self, name) for name in _COLUMNS]
        for stream in streams:
            _write_uvarint(payload, len(stream))
        for stream in streams:
            payload += stream
        return bytes(payload)

    def clear(self) -> None:
        for name in _COLUMNS:
            getattr(self, name).clear()


def _encode_record(inst: DynInst, cols: _Columns, state: _Codec) -> None:
    flags = 0
    if inst.signed:
        flags |= _F_SIGNED
    if inst.fp_convert:
        flags |= _F_FP_CONVERT
    if inst.taken:
        flags |= _F_TAKEN
    if inst.is_call:
        flags |= _F_IS_CALL
    if inst.is_return:
        flags |= _F_IS_RETURN
    if inst.dst is not None:
        flags |= _F_HAS_DST
    if inst.addr is not None:
        flags |= _F_HAS_ADDR
    if inst.target is not None:
        flags |= _F_HAS_TARGET
    if inst.store_seq >= 0:
        flags |= _F_HAS_STORE_SEQ
    if inst.dist_insns >= 0:
        flags |= _F_HAS_DIST
    sources = inst.src_stores
    uniform = len(sources) > 1 and len(set(sources)) == 1
    if uniform:
        flags |= _F_UNIFORM_SOURCES
    _write_uvarint(cols.flags, flags)
    cols.op.append(int(inst.op))
    cols.lat.append(inst.lat)
    cols.size.append(inst.size)
    cols.nsrcs.append(len(inst.srcs))
    cols.nstores.append(len(sources))
    page, off = inst.pc >> 8, inst.pc & 0xFF
    page_id = state.page_ids.get(page)
    if page_id is None:
        # First visit: reference 0 plus the page number in the side
        # stream; both sides assign the next dense id.
        state.page_ids[page] = len(state.page_ids)
        cols.pcpage.append(0)
        _write_uvarint(cols.pcnew, page)
    else:
        _write_uvarint(cols.pcpage, page_id + 1)
    cols.pcoff.append(off)
    if inst.dst is not None:
        cols.dst.append(inst.dst)
    if inst.addr is not None:
        _write_svarint(cols.addr, inst.addr - state.addr)
        state.addr = inst.addr
    if inst.target is not None:
        _write_svarint(cols.target, inst.target - inst.pc)
    if inst.dist_insns >= 0:
        _write_uvarint(cols.dist, inst.dist_insns)
    cols.srcs += bytes(inst.srcs)
    if sources:
        # Store distances: 0 is MEMORY_SOURCE, d >= 1 the d-th most
        # recent store.  In-window communication fits one byte.
        for value in sources[:1] if uniform else sources:
            if value == MEMORY_SOURCE:
                _write_uvarint(cols.sources, 0)
                continue
            distance = state.stores - value
            if distance < 1:
                raise TraceFormatError(
                    f"src_stores references store {value} at instruction "
                    f"{inst.seq}, but only {state.stores} stores precede "
                    "it; trace is not in program order or not annotated"
                )
            _write_uvarint(cols.sources, distance)
    if inst.store_seq >= 0:
        if inst.store_seq != state.stores:
            raise TraceFormatError(
                f"store_seq {inst.store_seq} out of order at instruction "
                f"{inst.seq} (expected {state.stores}); v2 requires dense "
                "program-order store numbering"
            )
        state.stores += 1


#: ``OpClass`` members indexed by their on-disk byte.
_OPS = tuple(OpClass(value) for value in range(len(OpClass)))
#: ``(signed, fp_convert, taken, is_call, is_return)`` for the five low
#: flag bits.
_LOW_FLAGS = tuple(
    tuple(bool(bits >> bit & 1) for bit in range(5)) for bits in range(32)
)


def _column_error(where: str, name: str, detail: str) -> TraceFormatError:
    return TraceFormatError(f"{where}: column {name!r} {detail}")


def _varint_column(where: str, name: str, stream: bytes,
                   decode=_uvarints) -> list[int]:
    try:
        return decode(stream)
    except ValueError as exc:
        raise _column_error(where, name, str(exc)) from None


def _column_demand(flags: list[int], nstores: bytes) -> dict[str, int]:
    """Values each flag-dependent column must hold for a block's records."""
    demand = dict.fromkeys(("dst", "addr", "target", "dist", "sources"), 0)
    for flag, nstore in zip(flags, nstores):
        demand["dst"] += bool(flag & _F_HAS_DST)
        demand["addr"] += bool(flag & _F_HAS_ADDR)
        demand["target"] += bool(flag & _F_HAS_TARGET)
        demand["dist"] += bool(flag & _F_HAS_DIST)
        if nstore:
            demand["sources"] += (
                1 if flag & _F_UNIFORM_SOURCES else nstore
            )
    return demand


def _check_consumed(where: str, columns, consumed: dict[str, int]) -> None:
    for name, column in columns:
        if len(column) != consumed[name]:
            raise _column_error(
                where, name,
                f"holds {len(column)} values, records need {consumed[name]}",
            )


def _decode_block(
    payload: bytes, count: int, block: int, base_seq: int, state: _Codec,
    path: Path,
) -> list[DynInst]:
    """Decode one decompressed block column by column.

    Every column must be consumed exactly; anything else is a
    :class:`TraceFormatError` naming the block and the column.
    """
    where = f"{path}: block {block} (instruction {base_seq})"
    # Split the column streams once: a length table, then the streams
    # back to back.
    offset = 0
    lengths = []
    try:
        for _ in _COLUMNS:
            length, offset = _read_uvarint(payload, offset)
            lengths.append(length)
    except IndexError:
        raise TraceFormatError(f"{where}: truncated column table") from None
    streams = []
    for length in lengths:
        streams.append(payload[offset:offset + length])
        offset += length
    if offset != len(payload):
        raise TraceFormatError(
            f"{where}: column table covers {offset} of {len(payload)} bytes"
        )
    (flag_stream, ops, lats, sizes, nsrcs, nstores, page_stream, pcoffs,
     new_stream, dsts, addr_stream, target_stream, dist_stream, src_stream,
     source_stream) = streams

    # u8 columns stay bytes; varint columns become int lists.
    flags = _varint_column(where, "flags", flag_stream)
    refs = _varint_column(where, "pcpage", page_stream)
    new_pages = _varint_column(where, "pcnew", new_stream)
    addrs = _varint_column(where, "addr", addr_stream, _svarints)
    targets = _varint_column(where, "target", target_stream, _svarints)
    dists = _varint_column(where, "dist", dist_stream)
    sources = _varint_column(where, "sources", source_stream)
    for name, column in (
        ("flags", flags), ("op", ops), ("lat", lats), ("size", sizes),
        ("nsrcs", nsrcs), ("nstores", nstores), ("pcpage", refs),
        ("pcoff", pcoffs),
    ):
        if len(column) != count:
            raise _column_error(
                where, name, f"holds {len(column)} values for {count} records"
            )
    if ops and max(ops) >= len(_OPS):
        raise _column_error(where, "op", f"has unknown op class {max(ops)}")
    for name, have, need in (
        ("pcnew", len(new_pages), refs.count(0)),
        ("srcs", len(src_stream), sum(nsrcs)),
    ):
        if have != need:
            raise _column_error(
                where, name, f"holds {have} values, records need {need}"
            )

    # PCs: a reference to a known page, or 0 and the next new page.
    pages = state.pages
    new_page = iter(new_pages).__next__
    pcs = []
    try:
        for ref, pcoff in zip(refs, pcoffs):
            if not ref:
                pages.append(new_page())
                ref = len(pages)
            pcs.append(pages[ref - 1] << 8 | pcoff)
    except IndexError:
        raise _column_error(
            where, "pcpage", f"references page {ref - 1} before it is defined"
        ) from None

    srcs = tuple(src_stream)
    addr = state.addr
    stores = state.stores
    next_dst = next_addr = next_target = next_dist = next_src = 0
    next_source = 0
    conditional = (
        ("dst", dsts), ("addr", addrs), ("target", targets),
        ("dist", dists), ("sources", sources),
    )
    insts: list[DynInst] = []
    append = insts.append
    try:
        for seq, flag, op, lat, size, nsrc, nstore, pc in zip(
            range(base_seq, base_seq + count), flags, ops, lats, sizes,
            nsrcs, nstores, pcs,
        ):
            signed, fp_conv, taken, call, ret = _LOW_FLAGS[flag & 0x1F]
            if flag & _F_HAS_DST:
                dst = dsts[next_dst]
                next_dst += 1
            else:
                dst = None
            if flag & _F_HAS_ADDR:
                addr += addrs[next_addr]
                next_addr += 1
                inst_addr = addr
            else:
                inst_addr = None
            if flag & _F_HAS_TARGET:
                target = pc + targets[next_target]
                next_target += 1
            else:
                target = None
            if flag & _F_HAS_DIST:
                dist = dists[next_dist]
                next_dist += 1
            else:
                dist = -1
            if not nstore:
                src_stores = unique = ()
                containing = MEMORY_SOURCE
            elif nstore == 1 or flag & _F_UNIFORM_SOURCES:
                # Store distances: 0 is MEMORY_SOURCE, d >= 1 the d-th
                # most recent store.
                raw = sources[next_source]
                next_source += 1
                if raw:
                    containing = stores - raw
                    if containing < 0:
                        raise _column_error(
                            where, "sources", f"reaches before the first "
                            f"store at instruction {seq}"
                        )
                    unique = (containing,)
                    src_stores = unique * nstore
                else:
                    containing = MEMORY_SOURCE
                    unique = ()
                    src_stores = (MEMORY_SOURCE,) * nstore
            else:
                raws = sources[next_source:next_source + nstore]
                next_source += nstore
                if max(raws, default=0) > stores:
                    raise _column_error(
                        where, "sources", f"reaches before the first store "
                        f"at instruction {seq}"
                    )
                src_stores = tuple([
                    stores - raw if raw else MEMORY_SOURCE for raw in raws
                ])
                # Derived annotations, exactly as annotate_trace computes
                # them (set iteration order included).
                distinct = set(src_stores)
                if len(distinct) == 1 and MEMORY_SOURCE not in distinct:
                    containing = src_stores[0]
                else:
                    containing = MEMORY_SOURCE
                unique = tuple(s for s in distinct if s != MEMORY_SOURCE)
            if flag & _F_HAS_STORE_SEQ:
                store_seq = stores
                stores += 1
            else:
                store_seq = -1
            append(DynInst(
                seq, pc, _OPS[op], srcs[next_src:next_src + nsrc], dst, lat,
                inst_addr, size, signed, fp_conv, taken, target, call, ret,
                store_seq, src_stores, containing, dist, unique,
            ))
            next_src += nsrc
    except IndexError:
        # A flag-dependent column ran out: name it from the full demand.
        _check_consumed(where, conditional, _column_demand(flags, nstores))
        raise
    _check_consumed(where, conditional, {
        "dst": next_dst, "addr": next_addr, "target": next_target,
        "dist": next_dist, "sources": next_source,
    })
    state.addr = addr
    state.stores = stores
    return insts


class BinaryTraceWriter:
    """Streaming v2 writer: feed instructions, blocks flush as they fill.

    Usable as a context manager::

        with BinaryTraceWriter(path) as writer:
            for inst in trace:
                writer.write(inst)
    """

    def __init__(
        self, path: str | Path,
        block_records: int = DEFAULT_BLOCK_RECORDS,
    ) -> None:
        if block_records < 1:
            raise ValueError(f"block_records must be >= 1: {block_records}")
        self.path = Path(path)
        self.block_records = block_records
        self._stream = open(self.path, "wb")
        self._stream.write(
            _HEADER.pack(MAGIC, BINARY_VERSION, 0, 0, block_records)
        )
        self._state = _Codec()
        self._columns = _Columns()
        self._buffered = 0
        self._count = 0
        self._index: list[tuple[int, int, int]] = []
        self._closed = False

    def write(self, inst: DynInst) -> None:
        _encode_record(inst, self._columns, self._state)
        self._buffered += 1
        self._count += 1
        if self._buffered >= self.block_records:
            self._flush_block()

    def _flush_block(self) -> None:
        if not self._buffered:
            return
        payload = zlib.compress(self._columns.assemble(), 9)
        offset = self._stream.tell()
        self._index.append((offset, self._buffered, len(payload)))
        self._stream.write(
            _FRAME.pack(len(payload), self._buffered, zlib.crc32(payload))
        )
        self._stream.write(payload)
        self._columns.clear()
        self._buffered = 0

    def abort(self) -> None:
        """Discard the output: close without finalizing and unlink the
        partial file, so a failed write never leaves a loadable-looking
        truncated trace behind."""
        if self._closed:
            return
        self._closed = True
        self._stream.close()
        try:
            os.unlink(self.path)
        except OSError:
            pass

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._flush_block()
            index_offset = self._stream.tell()
            for entry in self._index:
                self._stream.write(_INDEX_ENTRY.pack(*entry))
            self._stream.write(
                _TRAILER.pack(index_offset, len(self._index), TRAILER_MAGIC)
            )
            self._stream.seek(0)
            self._stream.write(_HEADER.pack(
                MAGIC, BINARY_VERSION, 0, self._count, self.block_records
            ))
        finally:
            self._stream.close()

    def __enter__(self) -> "BinaryTraceWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.abort()
        else:
            self.close()


def write_trace(trace: Iterable[DynInst], path: str | Path,
                block_records: int = DEFAULT_BLOCK_RECORDS) -> None:
    """Write *trace* to *path* in the v2 binary format."""
    with BinaryTraceWriter(path, block_records=block_records) as writer:
        for inst in trace:
            writer.write(inst)


def is_binary_trace(path: str | Path) -> bool:
    """True if *path* starts with the v2 magic."""
    try:
        with open(path, "rb") as stream:
            return stream.read(len(MAGIC)) == MAGIC
    except OSError:
        return False


def _read_header(stream, path: Path) -> tuple[int, int]:
    raw = stream.read(_HEADER.size)
    if not raw.startswith(MAGIC):
        raise TraceFormatError(
            f"{path}: not a repro trace file in the v2 format (v1 gzip-JSONL "
            "traces are no longer read)"
        )
    if len(raw) != _HEADER.size:
        raise TraceFormatError(f"{path}: truncated header")
    _magic, version, _flags, count, block_records = _HEADER.unpack(raw)
    if version != BINARY_VERSION:
        raise TraceFormatError(f"{path}: unsupported version {version}")
    return count, block_records


def read_trace(path: str | Path) -> Iterator[DynInst]:
    """Stream instructions from a v2 file, one block resident at a time.

    The derived per-instruction annotations are restored, but the
    whole-trace ``path_hist`` pass is **not** applied (it needs the full
    stream); use :func:`load_trace` for a simulation-ready list.
    """
    path = Path(path)
    with open(path, "rb") as stream:
        expected, _block_records = _read_header(stream, path)
        state = _Codec()
        seq = block = 0
        while seq < expected:
            raw = stream.read(_FRAME.size)
            if len(raw) != _FRAME.size:
                raise TraceFormatError(
                    f"{path}: truncated at instruction {seq} "
                    f"(header says {expected})"
                )
            comp_len, count, crc = _FRAME.unpack(raw)
            if seq + count > expected:
                raise TraceFormatError(
                    f"{path}: block {block} holds records {seq} to "
                    f"{seq + count - 1}, past the header's {expected}"
                )
            payload = stream.read(comp_len)
            if len(payload) != comp_len:
                raise TraceFormatError(
                    f"{path}: truncated block at instruction {seq}"
                )
            if zlib.crc32(payload) != crc:
                raise TraceFormatError(
                    f"{path}: block checksum mismatch at instruction {seq}"
                )
            try:
                decompressed = zlib.decompress(payload)
            except zlib.error as exc:
                raise TraceFormatError(
                    f"{path}: corrupt block at instruction {seq}: {exc}"
                ) from exc
            yield from _decode_block(
                decompressed, count, block, seq, state, path
            )
            seq += count
            block += 1


def load_trace(path: str | Path) -> list[DynInst]:
    """Read a v2 file into a simulation-ready annotated trace."""
    from repro.frontend.path_history import fill_path_history

    trace = list(read_trace(path))
    fill_path_history(trace)
    return trace


def trace_info(path: str | Path) -> dict:
    """Header and index statistics without decoding any instruction."""
    path = Path(path)
    file_size = path.stat().st_size
    with open(path, "rb") as stream:
        count, block_records = _read_header(stream, path)
        if file_size < _HEADER.size + _TRAILER.size:
            raise TraceFormatError(f"{path}: missing index trailer")
        stream.seek(-_TRAILER.size, 2)
        raw = stream.read(_TRAILER.size)
        index_offset, entries, magic = _TRAILER.unpack(raw)
        if magic != TRAILER_MAGIC:
            raise TraceFormatError(f"{path}: missing index trailer")
        stream.seek(index_offset)
        index = []
        for _ in range(entries):
            entry = stream.read(_INDEX_ENTRY.size)
            if len(entry) != _INDEX_ENTRY.size:
                raise TraceFormatError(f"{path}: truncated index footer")
            index.append(_INDEX_ENTRY.unpack(entry))
    compressed = sum(comp_len for _, _, comp_len in index)
    indexed = sum(records for _, records, _ in index)
    if indexed != count:
        raise TraceFormatError(
            f"{path}: header says {count} instructions, index covers "
            f"{indexed}"
        )
    return {
        "format": "repro-trace-binary",
        "version": BINARY_VERSION,
        "instructions": count,
        "blocks": len(index),
        "block_records": block_records,
        "file_bytes": file_size,
        "payload_bytes": compressed,
        "bytes_per_instruction": file_size / count if count else 0.0,
    }
