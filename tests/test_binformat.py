"""The bulk v2 block decoder against a per-record reference decoder.

:func:`repro.traces.binformat._decode_block` decodes a block column by
column.  :func:`reference_decode_block` below is the straightforward
per-record loop it replaced: one cursor per column stream, one varint
read per field.  It is kept here as the executable specification, and
every test asserts that the bulk decoder reproduces it field for field:
on the workload-zoo families, the committed repro fixtures, a crafted
trace that forces multi-byte varints into every varint column, and
Hypothesis traces written with tiny blocks so that the codec state
(running address, store count, PC page dictionary) crosses block
boundaries.
"""

from __future__ import annotations

import dataclasses
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings

from repro.isa.opcodes import OpClass
from repro.isa.trace import MEMORY_SOURCE, DynInst
from repro.traces import binformat
from repro.traces.binformat import read_trace, write_trace
from repro.validate import ops_strategy, ops_to_trace
from repro.workloads.zoo import ZOO_BENCHMARKS, generate_zoo_trace
from tests.conftest import build_trace

DATA = Path(__file__).parent / "data"


def _read_svarint(payload: bytes, offset: int) -> tuple[int, int]:
    raw, offset = binformat._read_uvarint(payload, offset)
    return (raw >> 1) if not raw & 1 else -((raw + 1) >> 1), offset


def reference_decode_block(
    payload: bytes, count: int, base_seq: int, state
) -> list[DynInst]:
    """Decode one block record by record (the reference decoder)."""
    _read_uvarint = binformat._read_uvarint
    insts: list[DynInst] = []
    lengths = []
    offset = 0
    for _ in binformat._COLUMNS:
        length, offset = _read_uvarint(payload, offset)
        lengths.append(length)
    cursor = {}
    for name, length in zip(binformat._COLUMNS, lengths):
        cursor[name] = offset
        offset += length
    assert offset == len(payload), "column table must cover the block"
    for index in range(count):
        flags, cursor["flags"] = _read_uvarint(payload, cursor["flags"])
        op = payload[cursor["op"]]
        cursor["op"] += 1
        lat = payload[cursor["lat"]]
        cursor["lat"] += 1
        size = payload[cursor["size"]]
        cursor["size"] += 1
        nsrcs = payload[cursor["nsrcs"]]
        cursor["nsrcs"] += 1
        nstores = payload[cursor["nstores"]]
        cursor["nstores"] += 1
        ref, cursor["pcpage"] = _read_uvarint(payload, cursor["pcpage"])
        if ref == 0:
            page, cursor["pcnew"] = _read_uvarint(payload, cursor["pcnew"])
            state.pages.append(page)
        else:
            page = state.pages[ref - 1]
        pc = (page << 8) | payload[cursor["pcoff"]]
        cursor["pcoff"] += 1
        dst = addr = target = None
        store_seq = -1
        dist_insns = -1
        if flags & binformat._F_HAS_DST:
            dst = payload[cursor["dst"]]
            cursor["dst"] += 1
        if flags & binformat._F_HAS_ADDR:
            delta, cursor["addr"] = _read_svarint(payload, cursor["addr"])
            addr = state.addr + delta
            state.addr = addr
        if flags & binformat._F_HAS_TARGET:
            delta, cursor["target"] = _read_svarint(payload, cursor["target"])
            target = pc + delta
        if flags & binformat._F_HAS_DIST:
            dist_insns, cursor["dist"] = _read_uvarint(payload, cursor["dist"])
        srcs = tuple(payload[cursor["srcs"]:cursor["srcs"] + nsrcs])
        cursor["srcs"] += nsrcs
        src_stores: tuple[int, ...] = ()
        if nstores:
            if flags & binformat._F_UNIFORM_SOURCES:
                raw, cursor["sources"] = _read_uvarint(
                    payload, cursor["sources"]
                )
                value = MEMORY_SOURCE if raw == 0 else state.stores - raw
                src_stores = (value,) * nstores
            else:
                values = []
                for _ in range(nstores):
                    raw, cursor["sources"] = _read_uvarint(
                        payload, cursor["sources"]
                    )
                    values.append(
                        MEMORY_SOURCE if raw == 0 else state.stores - raw
                    )
                src_stores = tuple(values)
        if flags & binformat._F_HAS_STORE_SEQ:
            store_seq = state.stores
            state.stores += 1
        inst = DynInst(
            seq=base_seq + index,
            pc=pc,
            op=OpClass(op),
            srcs=srcs,
            dst=dst,
            lat=lat,
            addr=addr,
            size=size,
            signed=bool(flags & binformat._F_SIGNED),
            fp_convert=bool(flags & binformat._F_FP_CONVERT),
            taken=bool(flags & binformat._F_TAKEN),
            target=target,
            is_call=bool(flags & binformat._F_IS_CALL),
            is_return=bool(flags & binformat._F_IS_RETURN),
        )
        inst.store_seq = store_seq
        inst.src_stores = src_stores
        inst.dist_insns = dist_insns
        unique = set(src_stores)
        if len(unique) == 1 and MEMORY_SOURCE not in unique:
            inst.containing_store = src_stores[0]
        else:
            inst.containing_store = MEMORY_SOURCE
        inst.unique_stores = tuple(s for s in unique if s != MEMORY_SOURCE)
        insts.append(inst)
    return insts


def block_payloads(path: Path):
    """Yield ``(record_count, decompressed payload)`` per block frame."""
    with open(path, "rb") as stream:
        expected, _ = binformat._read_header(stream, path)
        seq = 0
        while seq < expected:
            comp_len, count, _crc = binformat._FRAME.unpack(
                stream.read(binformat._FRAME.size)
            )
            yield count, zlib.decompress(stream.read(comp_len))
            seq += count


def reference_read_trace(path: Path) -> list[DynInst]:
    state = binformat._Codec()
    insts: list[DynInst] = []
    for count, payload in block_payloads(path):
        insts += reference_decode_block(payload, count, len(insts), state)
    return insts


def column_streams(payload: bytes) -> dict[str, bytes]:
    """Split one decompressed block into its named column streams."""
    lengths = []
    offset = 0
    for _ in binformat._COLUMNS:
        length, offset = binformat._read_uvarint(payload, offset)
        lengths.append(length)
    streams = {}
    for name, length in zip(binformat._COLUMNS, lengths):
        streams[name] = payload[offset:offset + length]
        offset += length
    return streams


def assert_matches_reference(path: Path) -> list[DynInst]:
    """Decode *path* both ways and compare every DynInst field."""
    expected = reference_read_trace(path)
    actual = list(read_trace(path))
    assert len(actual) == len(expected)
    for want, got in zip(expected, actual):
        for field in dataclasses.fields(DynInst):
            assert getattr(got, field.name) == getattr(want, field.name), (
                f"{path.name}: {field.name} diverged at seq {want.seq}"
            )
    return actual


@pytest.mark.parametrize("family", ZOO_BENCHMARKS)
@pytest.mark.parametrize("block_records", [64, binformat.DEFAULT_BLOCK_RECORDS])
def test_zoo_families_match_reference(tmp_path, family, block_records):
    trace = generate_zoo_trace(family, 3_000)
    path = tmp_path / "zoo.bt"
    write_trace(trace, path, block_records=block_records)
    assert_matches_reference(path)


@pytest.mark.parametrize("name", ["repro_svw_miss.bt", "repro_partial_word.bt"])
def test_committed_repro_files_match_reference(name):
    assert_matches_reference(DATA / name)


def multibyte_trace() -> list[DynInst]:
    """A trace whose every varint column needs multi-byte values."""
    specs = []
    # 200 distinct code pages, then a revisit: page ids >= 128 make the
    # pcpage references two bytes, and the page numbers fill pcnew.
    for page in range(200):
        specs.append(("alu", 8, {"pc": 0x4000_0000 + (page << 8)}))
    specs.append(("alu", 8, {"pc": 0x4000_0000 + (199 << 8) + 4}))
    # 130 stores climbing through memory, then loads far back down
    # (negative address deltas) of the first store: store distance 130
    # and dist_insns > 127.
    for index in range(130):
        specs.append(("st", 0x10_0000 + 8 * index, 8, 8))
    specs.append(("ld", 0x10_0000, 8))
    # Non-uniform sources mixing MEMORY_SOURCE: byte 0x201 from a store,
    # its neighbours from memory; then two stores under one load.
    specs.append(("st", 0x201, 1, 8))
    specs.append(("ld", 0x200, 4, {"signed": True}))
    specs.append(("st", 0x300, 1, 8))
    specs.append(("st", 0x301, 1, 8))
    specs.append(("ld", 0x300, 2))
    # Far branch targets in both directions.
    specs.append(("br", True, {"target": 0x7fff_0000}))
    specs.append(("br", False, {"target": 0x40}))
    specs.append(("call",))
    specs.append(("ret", 0x1000))
    return build_trace(specs)


@pytest.mark.parametrize("block_records", [7, binformat.DEFAULT_BLOCK_RECORDS])
def test_multibyte_varints_match_reference(tmp_path, block_records):
    trace = multibyte_trace()
    path = tmp_path / "multibyte.bt"
    write_trace(trace, path, block_records=block_records)
    if block_records == binformat.DEFAULT_BLOCK_RECORDS:
        # One block: check each varint column really holds bytes >= 0x80.
        [(_, payload)] = block_payloads(path)
        streams = column_streams(payload)
        for name in ("flags", "pcpage", "pcnew", "addr", "target", "dist",
                     "sources"):
            assert not streams[name].isascii(), name
    decoded = assert_matches_reference(path)
    assert any(inst.dist_insns > 127 for inst in decoded)
    assert any(
        MEMORY_SOURCE in inst.src_stores and inst.unique_stores
        for inst in decoded
    )


@settings(max_examples=60)
@given(ops_strategy(min_size=1, max_size=120))
def test_fuzz_traces_across_tiny_blocks_match_reference(tmp_path_factory, ops):
    path = tmp_path_factory.mktemp("fuzz") / "fuzz.bt"
    write_trace(ops_to_trace(ops), path, block_records=7)
    assert_matches_reference(path)
