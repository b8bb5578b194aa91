"""Minimal-repro serialization for differential-validation failures.

A *repro case* is a shrunk failing trace plus the context needed to
replay the failure anywhere: the config it violated, the violated
invariants, and the fuzzer coordinates (seed/index/op list) that
regenerate the original unshrunk trace.  On disk it is two files that
travel together::

    repro-nosq-seed0-17.bt        # the trace, v2 binary format
    repro-nosq-seed0-17.bt.json   # sidecar: config, violations, fuzz meta

The trace file is an ordinary v2 trace -- ``repro trace info``, ``repro
run trace:<path>`` and every other trace consumer work on it unchanged;
the sidecar is what ``repro validate shrink``/``run`` use to re-diff it
against the right configuration.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

from repro.isa.trace import DynInst

#: Sidecar format marker (and version, bumped on layout changes).
CASE_FORMAT = "repro-validate-case"
CASE_VERSION = 1


class MissingSidecarError(ValueError):
    """The trace file exists but has no repro-case sidecar next to it."""


@dataclass
class ReproCase:
    """A loaded repro case: the trace plus its sidecar metadata."""

    trace: list[DynInst]
    trace_path: Path
    config_name: str
    violations: list[str] = field(default_factory=list)
    #: Fuzzer coordinates ({"seed", "index", "length", "ops"}), if fuzzed.
    fuzz: dict[str, Any] | None = None
    oracle_version: int = 1


def sidecar_path(trace_path: str | Path) -> Path:
    return Path(f"{trace_path}.json")


def save_repro_case(
    trace: Sequence[DynInst],
    path: str | Path,
    *,
    config_name: str,
    violations: Sequence[str],
    fuzz: dict[str, Any] | None = None,
) -> Path:
    """Write *trace* (v2) and its sidecar; returns the trace path."""
    from repro.isa.tracefile import save_trace
    from repro.validate.oracle import ORACLE_VERSION

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    save_trace(list(trace), path)
    sidecar = {
        "format": CASE_FORMAT,
        "version": CASE_VERSION,
        "config": config_name,
        "violations": list(violations),
        "instructions": len(trace),
        "oracle_version": ORACLE_VERSION,
    }
    if fuzz is not None:
        sidecar["fuzz"] = fuzz
    sidecar_path(path).write_text(
        json.dumps(sidecar, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return path


def load_repro_case(path: str | Path) -> ReproCase:
    """Load a repro case saved by :func:`save_repro_case`.

    Raises :class:`~repro.isa.tracefile.TraceFormatError` for corrupt
    trace files, :class:`MissingSidecarError` when the sidecar file does
    not exist, and :class:`ValueError` for malformed sidecars or cases
    recorded under a different oracle version (whose synthetic values
    this build would disagree with).
    """
    from repro.isa.tracefile import load_trace
    from repro.validate.oracle import ORACLE_VERSION

    path = Path(path)
    meta_path = sidecar_path(path)
    # Sidecar first: a missing one short-circuits before the (much more
    # expensive) trace parse, which the bare-trace fallback would redo.
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise MissingSidecarError(
            f"{path}: no repro-case sidecar at {meta_path} (replay a bare "
            "trace with `repro validate run <config> trace:<path>`)"
        ) from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{meta_path}: malformed sidecar: {exc}") from exc
    if not isinstance(meta, dict) or meta.get("format") != CASE_FORMAT:
        raise ValueError(f"{meta_path}: not a {CASE_FORMAT} sidecar")
    try:
        recorded = int(meta.get("oracle_version", 1))
        config_name = meta.get("config", "nosq")
        if not isinstance(config_name, str):
            raise TypeError("config must be a string")
        violations = [str(v) for v in meta.get("violations", ())]
        fuzz = meta.get("fuzz")
        if fuzz is not None and not isinstance(fuzz, dict):
            raise TypeError("fuzz must be an object")
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{meta_path}: malformed sidecar: {exc}") from exc
    if recorded != ORACLE_VERSION:
        raise ValueError(
            f"{meta_path}: recorded under oracle version {recorded}, this "
            f"build uses {ORACLE_VERSION}; the synthetic store values "
            "differ, so its violations are not comparable"
        )
    return ReproCase(
        trace=load_trace(path),
        trace_path=path,
        config_name=config_name,
        violations=violations,
        fuzz=fuzz,
        oracle_version=recorded,
    )
