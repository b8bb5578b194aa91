"""JSON codecs for campaign records.

Everything the campaign engine hashes or persists — machine configurations
(hashed into cache keys, never decoded), run and trace statistics,
experiment scales — is converted to plain JSON-compatible dictionaries
here.  Two properties matter:

1. **Canonical**: :func:`canonical_json` sorts keys and strips whitespace,
   so equal objects always hash to the same cache key.
2. **Lossless**: every persisted field is an ``int``, ``str``, ``bool`` or
   exactly-representable ``float``, so a JSON round trip reconstructs
   statistics bit-identical to the in-memory originals (the cache-equals-
   recompute guarantee the tests assert).
"""

from __future__ import annotations

import dataclasses
import enum
import json
from typing import Any

from repro.isa.trace import TraceStats
from repro.pipeline.config import MachineConfig
from repro.pipeline.stats import RunStats


def jsonify(value: Any) -> Any:
    """Recursively convert dataclasses/enums/tuples to JSON-compatible types."""
    if isinstance(value, enum.Enum):
        return value.value
    # Scalars first: they are most of the leaves, and this order skips
    # the dataclass test for each of them.
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: jsonify(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, (list, tuple)):
        return [jsonify(v) for v in value]
    if isinstance(value, dict):
        return {str(k): jsonify(v) for k, v in value.items()}
    raise TypeError(f"cannot serialize {type(value).__name__}: {value!r}")


def canonical_json(value: Any) -> str:
    """Deterministic JSON rendering used for cache-key hashing."""
    return json.dumps(jsonify(value), sort_keys=True, separators=(",", ":"))


# --------------------------------------------------------------------- #
# MachineConfig
# --------------------------------------------------------------------- #

def config_to_dict(config: MachineConfig) -> dict[str, Any]:
    """Every field of *config*, nested dataclasses included."""
    return jsonify(config)


# --------------------------------------------------------------------- #
# Statistics
# --------------------------------------------------------------------- #

def run_stats_to_dict(stats: RunStats) -> dict[str, Any]:
    return jsonify(stats)


def run_stats_from_dict(data: dict[str, Any]) -> RunStats:
    return RunStats(**data)


def trace_stats_to_dict(stats: TraceStats) -> dict[str, Any]:
    return jsonify(stats)


def trace_stats_from_dict(data: dict[str, Any]) -> TraceStats:
    return TraceStats(**data)
