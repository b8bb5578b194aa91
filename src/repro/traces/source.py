"""Named trace sources: one abstraction over every way to get a trace.

A :class:`TraceSource` produces annotated dynamic-instruction traces for
the simulator.  Every source is addressable by *benchmark id* from
campaigns, the CLI and the harness — synthetic profiles, generator
families, saved trace files and external importers all answer to the same
:func:`resolve_source` call:

===============  ======================================================
benchmark id     resolves to
===============  ======================================================
``gzip``         :class:`SyntheticSource` (a Table 5 profile; the
                 historical namespace, unchanged)
``zoo.pchase``   a :class:`GeneratorSource` in :data:`SOURCES`
                 (workload zoo)
``prog.memcpy``  a :class:`GeneratorSource` in :data:`SOURCES` running a
                 mini-ISA program (intrinsic length, like a trace file)
``trace:PATH``   :class:`FileTraceSource` — a saved v2 trace file
``extern:PATH``  :class:`ExternalTraceSource` — an external event trace
                 run through the SynchroTrace-style importer
===============  ======================================================

``trace:``/``extern:`` ids embed the path, so they resolve identically in
every process.

Every source also reports a :meth:`TraceSource.content_id`: the part of
its identity that the benchmark id, scale and seed do not capture.  File
sources hash their bytes, generator families version their code; the
campaign cache folds this into job keys so a swapped trace file can never
be served a stale result.  Synthetic profiles return ``None`` (their id +
scale + seed is their full identity), keeping historical cache keys
byte-stable.
"""

from __future__ import annotations

import hashlib
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator

if TYPE_CHECKING:
    # Annotations only: harness.runner uses this module, and resolving an
    # id builds no trace.
    from repro.harness.runner import ExperimentScale
    from repro.isa.trace import DynInst

#: Bump when a generator family changes behaviour, so cached
#: campaign results keyed on its content id are invalidated.
GENERATOR_VERSION = 1


class TraceSource:
    """One named producer of annotated traces."""

    #: Benchmark id this source answers to.
    name: str

    def trace(self, scale: "ExperimentScale", seed: int) -> list[DynInst]:
        """Produce the annotated trace for *scale*/*seed*."""
        raise NotImplementedError

    def content_id(self) -> str | None:
        """Identity beyond (name, scale, seed); ``None`` if fully covered."""
        return None

    def describe(self) -> str:
        return self.name


class SyntheticSource(TraceSource):
    """A calibrated Table 5 profile driving the synthetic generator."""

    def __init__(self, name: str) -> None:
        from repro.workloads.profiles import profile

        self.name = name
        self._profile = profile(name)

    def trace(self, scale: "ExperimentScale", seed: int) -> list[DynInst]:
        from repro.workloads.generator import SyntheticWorkload

        workload = SyntheticWorkload(self._profile, seed=seed)
        return workload.generate(scale.num_instructions)

    def describe(self) -> str:
        return f"synthetic profile {self.name} ({self._profile.suite})"


class GeneratorSource(TraceSource):
    """A deterministic generator function ``fn(num_instructions, seed)``."""

    def __init__(
        self,
        name: str,
        generate: Callable[[int, int], list[DynInst]],
        description: str = "",
        version: int = GENERATOR_VERSION,
    ) -> None:
        self.name = name
        self._generate = generate
        self.description = description
        self.version = version

    def trace(self, scale: "ExperimentScale", seed: int) -> list[DynInst]:
        return self._generate(scale.num_instructions, seed)

    def content_id(self) -> str:
        return f"generator:{self.name}:v{self.version}"

    def describe(self) -> str:
        return self.description or f"generator {self.name}"


#: (resolved path, mtime_ns, size) -> sha256 hexdigest.  job_key hashes
#: a file source once per job per process; memoizing on the stat
#: signature makes repeats free while an overwritten file (new mtime or
#: size) still re-hashes, so cache keys track content.
_FILE_HASHES: dict[tuple[str, int, int], str] = {}


def _hash_file(path: Path) -> str:
    try:
        stat = path.stat()
    except OSError as exc:
        raise FileNotFoundError(f"trace source file {path}: {exc}") from exc
    key = (str(path.resolve()), stat.st_mtime_ns, stat.st_size)
    cached = _FILE_HASHES.get(key)
    if cached is not None:
        return cached
    digest = hashlib.sha256()
    try:
        with open(path, "rb") as stream:
            for chunk in iter(lambda: stream.read(1 << 20), b""):
                digest.update(chunk)
    except OSError as exc:
        raise FileNotFoundError(f"trace source file {path}: {exc}") from exc
    _FILE_HASHES[key] = digest.hexdigest()
    return _FILE_HASHES[key]


class FileTraceSource(TraceSource):
    """A saved v2 trace file.

    The trace's length is intrinsic to the file; the scale's
    ``num_instructions`` is ignored (``warmup`` still applies at
    simulation time), and so is the seed.
    """

    def __init__(self, path: str | Path, name: str | None = None) -> None:
        self.path = Path(path)
        self.name = name if name is not None else f"trace:{self.path}"

    def trace(self, scale: "ExperimentScale", seed: int) -> list[DynInst]:
        from repro.isa.tracefile import load_trace

        return load_trace(self.path)

    def content_id(self) -> str:
        return f"sha256:{_hash_file(self.path)}"

    def describe(self) -> str:
        return f"saved trace file {self.path}"


class ExternalTraceSource(TraceSource):
    """An external (SynchroTrace-style) event trace, converted on load."""

    def __init__(self, path: str | Path, name: str | None = None) -> None:
        self.path = Path(path)
        self.name = name if name is not None else f"extern:{self.path}"

    def trace(self, scale: "ExperimentScale", seed: int) -> list[DynInst]:
        from repro.traces.importers import import_synchrotrace

        return import_synchrotrace(self.path)

    def content_id(self) -> str:
        return f"sha256-extern:{_hash_file(self.path)}"

    def describe(self) -> str:
        return f"imported external trace {self.path}"


# --------------------------------------------------------------------- #
# Benchmark ids
# --------------------------------------------------------------------- #

#: Behavioural version of the zoo families (part of campaign cache keys):
#: bump it when a family in :mod:`repro.workloads.zoo` changes its output.
ZOO_VERSION = 1

#: The workload-zoo families (:mod:`repro.workloads.zoo`): name ->
#: one-line description.
_ZOO_FAMILIES = {
    "pchase": "pointer chasing, serialized cache-miss loads",
    "prodcons": "producer-consumer store-to-load chains",
    "hashjoin": "hash-join probe over a large table",
    "spmv": "sparse SpMV index+gather loads, FP accumulate",
    "callstack": "call-heavy recursion with stack spills",
    "memset": "streaming stores with rare read-back",
    "overlap": "mixed-size partial-word overlap pairs",
    "fsm": "branchy state machine over a hot table",
}

#: Fully-qualified benchmark ids of the zoo families.
ZOO_BENCHMARKS = tuple(f"zoo.{name}" for name in _ZOO_FAMILIES)

#: The mini-ISA programs (:mod:`repro.workloads.programs`): name -> what
#: the suite's build of it does.
_PROGRAMS = {
    "memcpy": "byte-wise copy of 256 bytes",
    "stack_spill": "64 calls with register spill/reload",
    "struct_pack": "64 records packed field-wise and read back",
    "fp_convert": "64 sts/lds single-precision round trips",
    "histogram": "128 histogram updates over 8 buckets",
}


def _zoo_trace(family: str, num_instructions: int, seed: int) -> list[DynInst]:
    from repro.workloads.zoo import generate_zoo_trace

    return generate_zoo_trace(family, num_instructions, seed)


def _program_trace(program: str, _length: int, _seed: int) -> list[DynInst]:
    from repro.workloads.programs import program_trace

    return program_trace(program)


#: The named generator sources, ``zoo.*`` families and ``prog.*``
#: programs.  The tables above name, describe and version them, so
#: resolving or hashing their ids loads no generator module: a source
#: imports its module when it produces a trace.
SOURCES: dict[str, TraceSource] = {}
_SYNTHETIC_CACHE: dict[str, SyntheticSource] = {}


def register_zoo_sources() -> None:
    """Add every zoo family to :data:`SOURCES` as ``zoo.<name>``."""
    for family, description in _ZOO_FAMILIES.items():
        SOURCES[f"zoo.{family}"] = GeneratorSource(
            f"zoo.{family}", partial(_zoo_trace, family),
            description=description, version=ZOO_VERSION,
        )


def register_program_sources() -> None:
    """Add every program to :data:`SOURCES` as ``prog.<name>``.  Like
    a trace file's, a program's length is intrinsic: the scale's
    instruction count and the seed are ignored, and the default warmup
    is clamped to half the program."""
    for program, description in _PROGRAMS.items():
        SOURCES[f"prog.{program}"] = GeneratorSource(
            f"prog.{program}",
            # A partial, not a lambda: campaign job groups pickle their
            # source for the worker processes.
            partial(_program_trace, program),
            description=f"mini-ISA program: {description}",
        )


register_zoo_sources()
register_program_sources()


def resolve_source(benchmark_id: str) -> TraceSource:
    """Resolve a campaign benchmark id to its trace source.

    Raises :class:`KeyError` for unknown ids and
    :class:`FileNotFoundError` for ``trace:``/``extern:`` paths that do
    not exist.
    """
    from repro.workloads.profiles import PROFILES

    if benchmark_id in PROFILES:
        source = _SYNTHETIC_CACHE.get(benchmark_id)
        if source is None:
            source = _SYNTHETIC_CACHE.setdefault(
                benchmark_id, SyntheticSource(benchmark_id)
            )
        return source
    if benchmark_id in SOURCES:
        return SOURCES[benchmark_id]
    for prefix, cls in (("trace:", FileTraceSource),
                        ("extern:", ExternalTraceSource)):
        if benchmark_id.startswith(prefix):
            path = Path(benchmark_id[len(prefix):])
            if not path.is_file():
                raise FileNotFoundError(
                    f"{benchmark_id}: no such trace file: {path}"
                )
            return cls(path, name=benchmark_id)
    raise KeyError(
        f"unknown benchmark {benchmark_id!r}: not a synthetic profile, "
        "zoo.*/prog.* source, 'trace:<path>' or 'extern:<path>'"
    )


def source_identity(benchmark_id: str) -> str | None:
    """The cache-key contribution of *benchmark_id*'s source, if any."""
    return resolve_source(benchmark_id).content_id()


def known_benchmark_ids() -> Iterator[str]:
    """Every currently addressable non-path benchmark id."""
    from repro.workloads.profiles import PROFILES

    yield from PROFILES
    yield from SOURCES
