"""Benchmark x configuration sweep machinery.

A :class:`BenchmarkResult` bundles the trace-level ground truth with the
:class:`~repro.pipeline.stats.RunStats` of each simulated configuration;
the per-table/figure modules turn collections of results into the paper's
rows and series.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

if TYPE_CHECKING:
    # Imported where a trace or stats object is built: a campaign served
    # from the cache builds neither.
    from repro.isa.trace import DynInst
    from repro.pipeline.config import MachineConfig
    from repro.pipeline.stats import RunStats, TraceStats


@dataclass(frozen=True)
class ExperimentScale:
    """How much work each simulated benchmark does.

    The paper simulates millions of instructions per benchmark; these scales
    trade fidelity for tractable Python runtimes.  Warmup instructions run
    with all microarchitectural state live but are excluded from statistics
    (the paper's warmed sampling).
    """

    name: str
    num_instructions: int
    warmup: int

    def __post_init__(self) -> None:
        if self.num_instructions < 1:
            raise ValueError(
                f"instructions ({self.num_instructions}) must be positive"
            )
        if not 0 <= self.warmup < self.num_instructions:
            raise ValueError(
                f"warmup ({self.warmup}) must be in "
                f"[0, {self.num_instructions}) — nothing would be measured"
            )

    @property
    def measured(self) -> int:
        return self.num_instructions - self.warmup


def effective_warmup(scale: ExperimentScale, trace_length: int) -> int:
    """*scale*'s warmup, clamped for short (intrinsic-length) traces.

    File-backed trace sources keep their own length regardless of the
    scale's ``num_instructions``; when the scale's warmup would swallow
    the whole trace, fall back to warming up half of it so statistics
    stay meaningful.  :func:`run_configs` applies it to every
    default-warmup run; synthetic and generator sources always produce
    ``num_instructions``-length traces, so their statistics are
    unaffected."""
    if scale.warmup >= trace_length:
        return trace_length // 2
    return scale.warmup


#: Seconds-per-benchmark scale: campaigns' default and the tests'.
SMOKE = ExperimentScale("smoke", num_instructions=8_000, warmup=3_000)
#: The default of every single-run entry point: ``repro.api.simulate``,
#: ``repro.api.validate``, ``repro run`` and ``repro validate run``.
DEFAULT = ExperimentScale("default", num_instructions=30_000, warmup=12_000)
#: The largest named scale (``campaign run --scale full``).
FULL = ExperimentScale("full", num_instructions=60_000, warmup=30_000)
#: The named scales every string-accepting entry point understands.
NAMED_SCALES: dict[str, ExperimentScale] = {
    "smoke": SMOKE, "default": DEFAULT, "full": FULL,
}


def resolve_scale(scale: str | int | ExperimentScale) -> ExperimentScale:
    """Accept a named scale, an instruction count (warmup half of it), or
    a scale object.

    The one place a scale argument becomes an :class:`ExperimentScale`,
    for :mod:`repro.api` and the CLI alike.  An unknown name raises
    :class:`~repro.api.ConfigSpecError`.
    """
    if isinstance(scale, ExperimentScale):
        return scale
    if isinstance(scale, int):
        return ExperimentScale("custom", scale, scale // 2)
    if scale in NAMED_SCALES:
        return NAMED_SCALES[scale]
    # Imported here: loading the harness loads no repro.api module.
    from repro.api.configs import ConfigSpecError

    raise ConfigSpecError(
        f"unknown scale {scale!r} (named scales: "
        f"{', '.join(sorted(NAMED_SCALES))}; or pass an instruction count "
        "or an ExperimentScale)"
    )


@dataclass
class BenchmarkResult:
    """Everything measured for one benchmark at one scale."""

    name: str
    scale: ExperimentScale
    trace_stats: TraceStats
    runs: dict[str, RunStats] = field(default_factory=dict)

    def relative_time(self, config_name: str, baseline_name: str) -> float:
        """Execution time of one configuration relative to another."""
        baseline = self.runs[baseline_name]
        run = self.runs[config_name]
        if baseline.cycles == 0:
            raise ValueError(f"baseline {baseline_name!r} ran zero cycles")
        return run.cycles / baseline.cycles


def geomean(values: Iterable[float]) -> float:
    """Geometric mean (the paper's suite summary statistic)."""
    values = list(values)
    if not values:
        return float("nan")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def amean(values: Iterable[float]) -> float:
    """Arithmetic mean (used by Figure 4 and Table 5 averages)."""
    values = list(values)
    if not values:
        return float("nan")
    return sum(values) / len(values)


def make_trace(name: str, scale: ExperimentScale, seed: int = 17) -> list[DynInst]:
    """Produce the annotated trace for benchmark id *name* at *scale*.

    *name* resolves through the trace-source layer
    (:func:`repro.traces.resolve_source`): synthetic profiles take the
    historical generator path bit-identically, while ``zoo.*`` families,
    ``trace:<path>`` files and ``extern:<path>`` imports load through
    their sources.
    """
    # Imported lazily: repro.traces builds on this module's scales.
    from repro.traces import resolve_source

    return resolve_source(name).trace(scale, seed)


def run_configs(
    trace: list[DynInst],
    configs: Iterable[MachineConfig],
    scale: ExperimentScale,
    warmup: int | None = None,
) -> Iterator[tuple[MachineConfig, RunStats, float]]:
    """Run every config over one shared *trace*, yielding
    ``(config, stats, elapsed_s)`` as each run finishes.

    The one loop behind :func:`run_benchmark`, the campaign scheduler,
    :func:`repro.api.simulate` and ``repro run``, so they share one
    warmup policy: an explicit *warmup* is honored as given (and
    rejected with :class:`ValueError` if it leaves nothing of the trace to
    measure), and the default is *scale*'s warmup clamped by
    :func:`effective_warmup`.
    """
    # Imported lazily: a campaign served from the cache never loads it.
    from repro.pipeline.processor import Processor

    if warmup is None:
        warmup = effective_warmup(scale, len(trace))
    elif warmup >= len(trace):
        raise ValueError(
            f"warmup ({warmup}) must be less than the trace length "
            f"({len(trace)}) — nothing would be measured"
        )
    for config in configs:
        started = time.perf_counter()
        stats = Processor(config).run(trace, warmup=warmup)
        yield config, stats, time.perf_counter() - started


def run_benchmark(
    name: str,
    configs: Sequence[MachineConfig],
    scale: ExperimentScale = DEFAULT,
    seed: int = 17,
    trace: list[DynInst] | None = None,
) -> BenchmarkResult:
    """Run *name* through every configuration on one shared trace."""
    from repro.isa.trace import communication_stats

    if trace is None:
        trace = make_trace(name, scale, seed)
    result = BenchmarkResult(
        name=name,
        scale=scale,
        trace_stats=communication_stats(trace),
    )
    for config, stats, _elapsed in run_configs(trace, configs, scale):
        result.runs[config.name] = stats
    return result
