"""Trace serialization: save and reload annotated dynamic traces.

Two on-disk formats share one loader:

* **v1** (this module): gzip-compressed JSON lines, one instruction per
  line — simple, diffable, and the historical interchange format;
* **v2** (:mod:`repro.traces.binformat`): columnar records in
  zlib-framed blocks with an index footer — several times smaller, and
  decoded a block at a time, column by column, so loading a saved trace
  is about twice as fast as regenerating it (figures in docs/traces.md).

:func:`load_trace` sniffs the leading magic bytes and dispatches, so
callers never care which format a file uses::

    from repro.isa.tracefile import save_trace, load_trace

    save_trace(trace, "gzip-60k.trace.gz")             # v1
    save_trace(trace, "gzip-60k.bt", version=2)        # v2 binary
    trace = load_trace("gzip-60k.bt")                  # auto-detected

Saving the generated (or functionally executed) trace makes an experiment
bit-reproducible and lets expensive workloads be shared between runs and
machines.
"""

from __future__ import annotations

import gzip
import json
from pathlib import Path
from typing import Sequence

from repro.isa.opcodes import OpClass
from repro.isa.trace import MEMORY_SOURCE, DynInst

#: Format version written into the v1 header line.
FORMAT_VERSION = 1

#: The gzip magic that opens every v1 file.
_GZIP_MAGIC = b"\x1f\x8b"

#: DynInst fields serialized per instruction (annotations included, so a
#: reloaded trace needs no re-annotation pass).
_FIELDS = (
    "seq", "pc", "srcs", "dst", "lat", "addr", "size", "signed",
    "fp_convert", "taken", "target", "is_call", "is_return",
    "store_seq", "src_stores", "containing_store", "dist_insns",
)


class TraceFormatError(ValueError):
    """Raised when a trace file is malformed or from an unknown version."""


def save_trace(
    trace: Sequence[DynInst], path: str | Path, version: int = 1
) -> None:
    """Write *trace* to *path*; ``version`` selects v1 JSONL or v2 binary."""
    if version == 2:
        from repro.traces.binformat import write_trace

        write_trace(trace, path)
        return
    if version != FORMAT_VERSION:
        raise ValueError(f"unknown trace format version {version}")
    path = Path(path)
    with gzip.open(path, "wt", encoding="utf-8") as stream:
        header = {"format": "repro-trace", "version": FORMAT_VERSION,
                  "instructions": len(trace)}
        stream.write(json.dumps(header) + "\n")
        for inst in trace:
            record = {"op": inst.op.name}
            for name in _FIELDS:
                value = getattr(inst, name)
                if isinstance(value, tuple):
                    value = list(value)
                record[name] = value
            stream.write(json.dumps(record) + "\n")


def detect_version(path: str | Path) -> int:
    """Sniff the on-disk format version of *path* from its magic bytes."""
    from repro.traces.binformat import MAGIC

    path = Path(path)
    try:
        with open(path, "rb") as stream:
            head = stream.read(max(len(MAGIC), len(_GZIP_MAGIC)))
    except OSError as exc:
        raise TraceFormatError(f"{path}: cannot open: {exc}") from exc
    if head.startswith(MAGIC):
        return 2
    if head.startswith(_GZIP_MAGIC):
        return FORMAT_VERSION
    raise TraceFormatError(
        f"{path}: not a repro trace file (neither v1 gzip-JSONL nor "
        "v2 binary magic)"
    )


def load_trace(path: str | Path) -> list[DynInst]:
    """Read a trace written by :func:`save_trace`, either format.

    v1 files are decoded streaming, line by line; a corrupt line raises
    :class:`TraceFormatError` naming the offending line number.
    """
    path = Path(path)
    if detect_version(path) == 2:
        from repro.traces.binformat import load_trace as load_binary

        return load_binary(path)
    trace: list[DynInst] = []
    with gzip.open(path, "rt", encoding="utf-8") as stream:
        header_line = stream.readline()
        try:
            header = json.loads(header_line)
        except json.JSONDecodeError as exc:
            raise TraceFormatError(f"{path}: bad header") from exc
        if not isinstance(header, dict) or header.get("format") != "repro-trace":
            raise TraceFormatError(f"{path}: not a repro trace file")
        if header.get("version") != FORMAT_VERSION:
            raise TraceFormatError(
                f"{path}: unsupported version {header.get('version')}"
            )
        for lineno, line in enumerate(stream, start=2):
            if line.strip():
                trace.append(_decode(line, path, lineno))
    # Derived annotation (not serialized): recompute so reloaded traces
    # match annotate_trace output exactly.
    from repro.frontend.path_history import fill_path_history

    fill_path_history(trace)
    expected = header.get("instructions")
    if expected is not None and expected != len(trace):
        raise TraceFormatError(
            f"{path}: header says {expected} instructions, found {len(trace)}"
        )
    return trace


def _decode(line: str, path: Path, lineno: int) -> DynInst:
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise TraceFormatError(
            f"{path}: line {lineno}: corrupt record: {exc}"
        ) from exc
    try:
        inst = DynInst(
            seq=record["seq"],
            pc=record["pc"],
            op=OpClass[record["op"]],
            srcs=tuple(record["srcs"]),
            dst=record["dst"],
            lat=record["lat"],
            addr=record["addr"],
            size=record["size"],
            signed=record["signed"],
            fp_convert=record["fp_convert"],
            taken=record["taken"],
            target=record["target"],
            is_call=record["is_call"],
            is_return=record["is_return"],
        )
        inst.store_seq = record["store_seq"]
        inst.src_stores = tuple(record["src_stores"])
        inst.containing_store = record["containing_store"]
        inst.dist_insns = record["dist_insns"]
        # Derived annotation (not serialized): recompute so reloaded traces
        # match annotate_trace output exactly.
        inst.unique_stores = tuple(
            s for s in set(inst.src_stores) if s != MEMORY_SOURCE
        )
        return inst
    except (KeyError, ValueError, TypeError) as exc:
        raise TraceFormatError(
            f"{path}: line {lineno}: malformed record: {exc}"
        ) from exc
