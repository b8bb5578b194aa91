"""Trace files: save and reload annotated dynamic traces.

Trace files use the v2 format of :mod:`repro.traces.binformat`: columnar
records in zlib-framed blocks with an index footer, decoded a block at a
time, column by column, so loading a saved trace is faster than
regenerating it (figures in docs/traces.md)::

    from repro.isa.tracefile import save_trace, load_trace

    save_trace(trace, "gzip-60k.bt")
    trace = load_trace("gzip-60k.bt")

Saving the generated (or functionally executed) trace makes an experiment
bit-reproducible and lets expensive workloads be shared between runs and
machines.  A file without the v2 magic (for instance one written in the
retired v1 gzip-JSONL format) raises :class:`TraceFormatError`.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

from repro.isa.trace import DynInst


class TraceFormatError(ValueError):
    """Raised when a trace file is malformed or from an unknown version."""


def save_trace(
    trace: Sequence[DynInst], path: str | Path, version: int = 2
) -> None:
    """Write *trace* to *path* in the v2 format (the only one written)."""
    if version != 2:
        raise ValueError(
            f"unknown trace format version {version} (only v2 is written)"
        )
    from repro.traces.binformat import write_trace

    write_trace(trace, path)


def load_trace(path: str | Path) -> list[DynInst]:
    """Read a v2 trace written by :func:`save_trace`."""
    from repro.traces.binformat import load_trace as load_binary

    return load_binary(path)
