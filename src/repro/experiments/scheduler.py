"""Sharded, cached, resumable campaign execution.

:func:`run_campaign` expands a :class:`~repro.experiments.spec.CampaignSpec`
into jobs, serves what it can from the
:class:`~repro.experiments.cache.ResultCache`, and shards the remainder
across a :class:`~concurrent.futures.ProcessPoolExecutor` (``jobs`` worker
processes; ``jobs=1`` runs inline in this process with identical results).

Sharding unit: all of one benchmark's uncached configs at one seed form a
*job group*, so the trace — the expensive shared input — is generated once
per (benchmark, seed) and reused by every config in the group, through the
same loop (:func:`~repro.harness.runner.run_configs`) as the serial
:func:`~repro.harness.runner.run_benchmark` path.  Results are therefore
bit-identical between serial, inline and multi-process runs.

Every finished job is written to the cache immediately (inline mode) or as
its group completes (pool mode), so interrupting a campaign loses at most
the in-flight groups; a re-run resumes from the cached remainder.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

import repro
from repro.experiments.cache import CACHE_SCHEMA, ResultCache, job_key
from repro.experiments.codec import (
    run_stats_to_dict,
    trace_stats_to_dict,
)
from repro.experiments.spec import CampaignSpec, Job
from repro.experiments.store import ResultStore, collect_results
from repro.harness.runner import (
    BenchmarkResult,
    ExperimentScale,
    run_configs,
)
from repro.isa.trace import communication_stats
from repro.pipeline.config import MachineConfig

if TYPE_CHECKING:
    from repro.traces.source import TraceSource


@dataclass(frozen=True)
class ProgressEvent:
    """One scheduler progress tick, suitable for logging."""

    kind: str                 # "start" | "hit" | "done"
    benchmark: str
    seed: int
    config_name: str | None
    completed: int            # jobs finished so far (hits included)
    total: int

    def describe(self) -> str:
        label = self.benchmark
        if self.config_name:
            label += f"/{self.config_name}"
        suffix = {"start": "...", "hit": " (cached)", "done": " done"}
        return f"[{self.completed}/{self.total}] {label}{suffix[self.kind]}"


ProgressFn = Callable[[ProgressEvent], None]


@dataclass(frozen=True)
class JobGroup:
    """One benchmark's uncached configs at one seed (shares one trace).

    ``source`` is the benchmark's :class:`~repro.traces.TraceSource`,
    resolved once by :func:`plan_campaign`; a pool run pickles it into
    the worker that builds the trace.
    """

    benchmark: str
    scale: ExperimentScale
    seed: int
    configs: tuple[MachineConfig, ...]
    keys: tuple[str, ...]
    source: TraceSource


@dataclass
class CampaignResult:
    """Everything a finished (or resumed) campaign produced."""

    spec: CampaignSpec
    records: list[dict[str, Any]] = field(default_factory=list)
    hits: int = 0
    executed: int = 0
    elapsed_s: float = 0.0

    def suite_results(
        self, seed: int | None = None
    ) -> dict[str, BenchmarkResult]:
        """Per-benchmark results for one seed (default: the spec's first)."""
        if seed is None:
            seed = self.spec.seeds[0]
        return collect_results(
            self.records, seed=seed, benchmarks=self.spec.benchmarks
        )


def _make_record(
    job: Job,
    key: str,
    run_stats: Any,
    trace_stats: Any,
    elapsed_s: float,
) -> dict[str, Any]:
    return {
        "schema": CACHE_SCHEMA,
        "version": repro.__version__,
        "key": key,
        "benchmark": job.benchmark,
        "config_name": job.config.name,
        "scale": {
            "name": job.scale.name,
            "num_instructions": job.scale.num_instructions,
            "warmup": job.scale.warmup,
        },
        "seed": job.seed,
        "trace_stats": trace_stats_to_dict(trace_stats),
        "run_stats": run_stats_to_dict(run_stats),
        "elapsed_s": elapsed_s,
        "cached": False,
    }


#: The modules that execute a job group: the processor and the trace
#: producers behind the sources.  A campaign served wholly from the
#: cache never loads them.
_GROUP_MODULES = (
    "repro.pipeline.processor",
    "repro.workloads.generator",
    "repro.isa.tracefile",
)


def _iter_group_records(group: JobGroup):
    """Run a group's jobs on one shared trace, yielding ``(key, record)``
    as each finishes (so inline callers can persist per job)."""
    trace = group.source.trace(group.scale, group.seed)
    trace_stats = communication_stats(trace)
    # run_configs clamps the default warmup for intrinsic-length sources
    # (trace:/extern: files) exactly as simulate()/repro run do.  The
    # clamp is a pure function of the cache-key inputs (the scale numbers
    # and the source's content hash), so cached records stay coherent.
    runs = run_configs(trace, group.configs, group.scale)
    for (config, stats, elapsed_s), key in zip(runs, group.keys):
        job = Job(group.benchmark, config, group.scale, group.seed)
        yield key, _make_record(job, key, stats, trace_stats, elapsed_s)


def _run_group(group: JobGroup) -> list[dict[str, Any]]:
    """Worker entry point: one trace, one run per config.

    Module-level so it pickles into :class:`ProcessPoolExecutor` workers.
    """
    return [record for _key, record in _iter_group_records(group)]


def plan_campaign(
    spec: CampaignSpec, cache: ResultCache | None, force: bool = False
) -> tuple[list[tuple[Job, str, dict[str, Any]]], list[JobGroup]]:
    """Split the spec into cache hits and groups of jobs still to run."""
    hits: list[tuple[Job, str, dict[str, Any]]] = []
    pending: dict[tuple[str, int], list[tuple[Job, str]]] = {}
    # Every config and benchmark recurs across the cross product; the
    # memo has job_key compute each one's contribution once per plan.
    memo: dict[Any, Any] = {}
    for job in spec.jobs():
        key = job_key(job, memo)
        record = None if (cache is None or force) else cache.get(key)
        if record is not None:
            hits.append((job, key, record))
        else:
            pending.setdefault(job.group_id, []).append((job, key))
    # Resolve each source once, here: groups ship it to the workers.
    from repro.traces import resolve_source

    groups = [
        JobGroup(
            benchmark=benchmark,
            scale=spec.scale,
            seed=seed,
            configs=tuple(job.config for job, _ in items),
            keys=tuple(key for _, key in items),
            source=resolve_source(benchmark),
        )
        for (benchmark, seed), items in pending.items()
    ]
    return hits, groups


def run_campaign(
    spec: CampaignSpec,
    jobs: int = 1,
    cache: ResultCache | str | os.PathLike[str] | None = None,
    store: ResultStore | str | os.PathLike[str] | None = None,
    progress: ProgressFn | None = None,
    force: bool = False,
) -> CampaignResult:
    """Execute *spec*, serving cached jobs from *cache* and sharding the
    rest across *jobs* worker processes.

    ``cache``/``store`` accept paths (``str`` or ``os.PathLike``) for
    convenience.  ``force=True`` ignores (but still refreshes) existing
    cache entries.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if cache is not None and not isinstance(cache, ResultCache):
        cache = ResultCache(cache)
    if store is not None and not isinstance(store, ResultStore):
        store = ResultStore(store)

    started = time.perf_counter()
    result = CampaignResult(spec=spec)
    total = spec.num_jobs

    def emit(kind: str, benchmark: str, seed: int,
             config_name: str | None) -> None:
        if progress is not None:
            progress(ProgressEvent(
                kind=kind, benchmark=benchmark, seed=seed,
                config_name=config_name,
                completed=result.hits + result.executed, total=total,
            ))

    def finish(record: dict[str, Any], key: str) -> None:
        record = dict(record, cached=False)
        result.records.append(record)
        result.executed += 1
        if cache is not None:
            cache.put(key, record)
        if store is not None:
            store.append(record)
        emit("done", record["benchmark"], record["seed"], record["config_name"])

    hits, groups = plan_campaign(spec, cache, force=force)

    started_groups: set[tuple[str, int]] = set()

    def announce(benchmark: str, seed: int) -> None:
        if (benchmark, seed) not in started_groups:
            started_groups.add((benchmark, seed))
            emit("start", benchmark, seed, None)

    # Cache hits reach the store in one write, ahead of any executed job.
    served = [dict(record, cached=True) for _job, _key, record in hits]
    if store is not None:
        store.append(*served)
    for (job, _key, _record), record in zip(hits, served):
        announce(job.benchmark, job.seed)
        result.records.append(record)
        result.hits += 1
        emit("hit", job.benchmark, job.seed, record["config_name"])

    # A pool pays off only when there are groups to overlap.
    use_pool = jobs > 1 and len(groups) > 1
    if groups:
        # Load the group modules once, before the first trace.  Forked
        # workers inherit them, which spares every worker of every
        # campaign from importing (and, without a bytecode cache,
        # compiling) them.  Inline groups would otherwise load the
        # processor after generating their first trace, which raised the
        # peak RSS.  They also load before the pool machinery: the other
        # order left the parent with a higher peak RSS (DESIGN.md,
        # "Import boundaries").
        for module in _GROUP_MODULES:
            __import__(module)
    if not use_pool:
        for group in groups:
            announce(group.benchmark, group.seed)
            for key, record in _iter_group_records(group):
                finish(record, key)
    else:
        from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = {}
            for group in groups:
                announce(group.benchmark, group.seed)
                futures[pool.submit(_run_group, group)] = group
            not_done = set(futures)
            try:
                while not_done:
                    done, not_done = wait(
                        not_done, return_when=FIRST_COMPLETED
                    )
                    for future in done:
                        group = futures[future]
                        for record, key in zip(
                            future.result(), group.keys
                        ):
                            finish(record, key)
            except BaseException:
                for future in not_done:
                    future.cancel()
                raise

    result.elapsed_s = time.perf_counter() - started
    return result
