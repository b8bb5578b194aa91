"""Typed entry points: ``simulate()`` and ``sweep()``.

The one-call view of the whole stack: a config spec (or
:class:`MachineConfig`), a benchmark id (or :class:`TraceSource`, or a
raw trace), and a scale, in; typed results out::

    from repro.api import simulate, sweep

    result = simulate("nosq?rob_size=256", "zoo.pchase", scale="smoke")
    print(result.ipc, result.stats.pct_loads_bypassed)

    swept = sweep("nosq*,conventional", ["gzip", "mcf"], scale="smoke",
                  jobs=4, cache="results/cache")
    print(swept.stats("gzip", "nosq").ipc)

``sweep`` runs through the campaign engine (:mod:`repro.experiments`):
``jobs=N`` shards across worker processes, and passing ``cache=`` (a
directory path, as above) memoizes results in the content-addressed
cache exactly like ``repro campaign run``.  Caching is opt-in — a
library call never writes to the working directory unless asked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from repro.api.configs import resolve_config, resolve_configs
from repro.harness.runner import (
    DEFAULT,
    NAMED_SCALES,  # noqa: F401 -- re-exported by repro.api
    BenchmarkResult,
    ExperimentScale,
    effective_warmup,  # noqa: F401 -- re-exported by repro.api
    resolve_scale,
    run_configs,
)
from repro.isa.trace import DynInst, TraceStats, communication_stats
from repro.pipeline.config import MachineConfig
from repro.pipeline.stats import RunStats

TraceLike = Any  # str benchmark id | TraceSource | list[DynInst]


def _resolve_trace(
    source: TraceLike, scale: ExperimentScale, seed: int
) -> tuple[str, list[DynInst]]:
    """Turn any trace-ish input into ``(benchmark_id, annotated trace)``."""
    if isinstance(source, str):
        from repro.traces import resolve_source

        return source, resolve_source(source).trace(scale, seed)
    if isinstance(source, list):
        return "<trace>", source
    trace_fn = getattr(source, "trace", None)
    if callable(trace_fn):  # a TraceSource
        return getattr(source, "name", "<source>"), trace_fn(scale, seed)
    raise TypeError(
        f"cannot produce a trace from {type(source).__name__}: pass a "
        "benchmark id, a TraceSource, or a list[DynInst]"
    )


@dataclass(frozen=True)
class SimResult:
    """One simulation: the machine, the workload, and what it measured."""

    benchmark: str
    config: MachineConfig
    scale: ExperimentScale
    seed: int
    stats: RunStats
    trace_stats: TraceStats

    @property
    def config_name(self) -> str:
        return self.config.name

    @property
    def ipc(self) -> float:
        return self.stats.ipc

    @property
    def cycles(self) -> int:
        return self.stats.cycles

    def describe(self) -> str:
        return (
            f"{self.benchmark}/{self.config.name}@{self.scale.name}: "
            f"IPC {self.stats.ipc:.3f}, {self.stats.cycles} cycles"
        )


def simulate(
    config: str | MachineConfig,
    source: TraceLike,
    scale: str | int | ExperimentScale = DEFAULT,
    *,
    seed: int = 17,
    warmup: int | None = None,
) -> SimResult:
    """Run one benchmark on one machine configuration.

    *config* is a spec string (``nosq?rob_size=256``) or a
    :class:`MachineConfig`; *source* is a benchmark id (profiles, zoo
    families, ``trace:``/``extern:`` paths), a
    :class:`~repro.traces.TraceSource`, or an already-annotated trace;
    *scale* is ``smoke``/``default``/``full``, an instruction count, or an
    :class:`ExperimentScale`.  *warmup* defaults to the scale's.
    """
    machine = resolve_config(config)
    scale = resolve_scale(scale)
    benchmark, trace = _resolve_trace(source, scale, seed)
    _, stats, _ = next(run_configs(trace, [machine], scale, warmup))
    return SimResult(
        benchmark=benchmark,
        config=machine,
        scale=scale,
        seed=seed,
        stats=stats,
        trace_stats=communication_stats(trace),
    )


def validate(
    config: str | MachineConfig | Iterable[str | MachineConfig],
    source: TraceLike,
    scale: str | int | ExperimentScale = DEFAULT,
    *,
    seed: int = 17,
) -> Any:
    """Differentially validate configurations against the in-order oracle.

    Runs *config* (a spec string, a :class:`MachineConfig`, or anything
    ``resolve_configs`` accepts -- globs, set names, comma lists) over
    *source*'s trace and cross-checks every invariant in
    :data:`repro.validate.INVARIANTS` against the oracle replay
    (:mod:`repro.validate`).  Returns a
    :class:`~repro.validate.diff.ValidationResult`; ``result.ok`` is
    True iff no invariant was violated by any configuration.
    """
    from repro.validate import run_validation

    configs = resolve_configs(
        [config] if isinstance(config, MachineConfig) else config
    )
    scale = resolve_scale(scale)
    benchmark, trace = _resolve_trace(source, scale, seed)
    return run_validation(configs, trace, benchmark=benchmark)


@dataclass
class SweepResult:
    """A finished configs x benchmarks x seeds sweep."""

    spec: Any                  # CampaignSpec
    campaign: Any              # CampaignResult

    @property
    def hits(self) -> int:
        return self.campaign.hits

    @property
    def executed(self) -> int:
        return self.campaign.executed

    @property
    def elapsed_s(self) -> float:
        return self.campaign.elapsed_s

    @property
    def config_names(self) -> list[str]:
        return [config.name for config in self.spec.configs]

    def results(self, seed: int | None = None) -> dict[str, BenchmarkResult]:
        """Per-benchmark results for one seed (default: the first)."""
        return self.campaign.suite_results(seed)

    def stats(
        self, benchmark: str, config: str | MachineConfig,
        seed: int | None = None,
    ) -> RunStats:
        """One run's statistics; *config* is a name, spec, or config."""
        runs = self.results(seed)[benchmark].runs
        if isinstance(config, MachineConfig):
            name = config.name
        elif config in runs:
            name = config
        else:
            name = resolve_config(config).name
        return runs[name]


def sweep(
    configs: str | Iterable[str | MachineConfig],
    benchmarks: str | Sequence[str],
    scale: str | int | ExperimentScale = DEFAULT,
    *,
    seeds: Sequence[int] = (17,),
    jobs: int = 1,
    cache: Any = None,
    store: Any = None,
    progress: Callable[[Any], None] | None = None,
    force: bool = False,
    window: int = 128,
    name: str = "sweep",
) -> SweepResult:
    """Run a configs x benchmarks x seeds cross product, cached + sharded.

    *configs* accepts everything ``repro campaign run --configs`` does:
    spec strings with overrides, globs over preset names, set names, comma
    lists, or :class:`MachineConfig` objects.  *cache*/*store* accept
    paths or the engine's objects; both default to ``None`` (no disk
    writes) — pass ``cache="results/cache"`` to make repeat sweeps
    instant.  ``jobs`` shards benchmarks over worker processes with
    bit-identical results.
    """
    from repro.experiments import CampaignSpec, run_campaign

    spec = CampaignSpec(
        benchmarks=[benchmarks] if isinstance(benchmarks, str)
        else list(benchmarks),
        configs=resolve_configs(configs, window=window),
        scale=resolve_scale(scale),
        seeds=tuple(seeds),
        name=name,
    )
    campaign = run_campaign(
        spec, jobs=jobs, cache=cache, store=store, progress=progress,
        force=force,
    )
    return SweepResult(spec=spec, campaign=campaign)
