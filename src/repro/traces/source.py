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
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator

from repro.isa.trace import DynInst

if TYPE_CHECKING:  # circular at runtime: harness.runner uses this module
    from repro.harness.runner import ExperimentScale

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

#: The named generator sources, ``zoo.*`` families and ``prog.*``
#: programs; importing :mod:`repro.traces` fills it.
SOURCES: dict[str, TraceSource] = {}
_SYNTHETIC_CACHE: dict[str, SyntheticSource] = {}


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
