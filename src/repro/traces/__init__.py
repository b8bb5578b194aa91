"""Pluggable trace-ingestion subsystem.

Decouples where traces come from (synthetic profiles, the workload zoo,
saved trace files, external capture tools) from the timing model that
consumes them — the trace-capture/replay split standard in architecture
simulators (gem5's SynchroTrace tester is the pattern's reference):

* :mod:`repro.traces.source` — the :class:`TraceSource` abstraction and
  the fixed table of named sources; campaign benchmark ids (``gzip``,
  ``zoo.pchase``, ``prog.memcpy``, ``trace:<path>``, ``extern:<path>``)
  all resolve through :func:`resolve_source`, and
  :func:`source_identity` is what the campaign cache folds into job keys;
* :mod:`repro.traces.binformat` — the v2 binary packed trace format, the
  one trace file format (struct-packed records, zlib-framed blocks,
  index footer), with a streaming reader/writer;
* :mod:`repro.traces.importers` — converters from external event-trace
  formats (SynchroTrace-style compute/read/write/dependency events) into
  annotated :class:`~repro.isa.trace.DynInst` streams;
* :mod:`repro.traces.reprocase` — minimal-repro serialization for
  differential-validation failures (a v2 trace plus a JSON sidecar
  recording the config, violated invariants and fuzz coordinates).

``repro trace record|convert|info|validate`` exposes the subsystem on the
command line; see ``docs/traces.md`` for the format specification and the
importer field mapping.

Importing this package loads :mod:`~repro.traces.source`, whose
``SOURCES`` table names the workload-zoo generator families (``zoo.*``)
and the mini-ISA programs (``prog.*``) without loading their modules;
the format, importer and repro-case names load their modules on first
access.
"""

from repro._lazy import lazy_exports
from repro.traces.source import (
    ZOO_BENCHMARKS,
    ExternalTraceSource,
    FileTraceSource,
    GeneratorSource,
    SyntheticSource,
    TraceSource,
    known_benchmark_ids,
    resolve_source,
    source_identity,
)

#: The codecs, the importer and the repro-case API, loaded on first
#: access: resolving and hashing a benchmark id needs none of them.
_EXPORTS = {
    "BINARY_VERSION": "binformat",
    "BinaryTraceWriter": "binformat",
    "is_binary_trace": "binformat",
    "read_trace": "binformat",
    "trace_info": "binformat",
    "write_trace": "binformat",
    "import_synchrotrace": "importers",
    "ReproCase": "reprocase",
    "load_repro_case": "reprocase",
    "save_repro_case": "reprocase",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "BINARY_VERSION",
    "BinaryTraceWriter",
    "ExternalTraceSource",
    "FileTraceSource",
    "GeneratorSource",
    "ReproCase",
    "SyntheticSource",
    "TraceSource",
    "ZOO_BENCHMARKS",
    "import_synchrotrace",
    "is_binary_trace",
    "known_benchmark_ids",
    "load_repro_case",
    "read_trace",
    "save_repro_case",
    "resolve_source",
    "source_identity",
    "trace_info",
    "write_trace",
]
