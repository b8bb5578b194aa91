"""Declarative campaign specifications.

A :class:`CampaignSpec` names a cross product of benchmarks x machine
configurations x seeds at one :class:`~repro.harness.runner.ExperimentScale`.
:meth:`CampaignSpec.jobs` expands it into independent :class:`Job` units —
one simulation each — which the scheduler shards across workers and the
cache addresses by content hash.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.harness.runner import DEFAULT, ExperimentScale
from repro.pipeline.config import MachineConfig
from repro.workloads.profiles import PROFILES


@dataclass(frozen=True)
class Job:
    """One independent simulation: a benchmark on a config at a seed.

    ``benchmark`` is any id the trace-source layer resolves
    (:func:`repro.traces.resolve_source`): a synthetic profile name, a
    named source such as a ``zoo.*`` family, or a self-describing
    ``trace:<path>``/``extern:<path>`` id."""

    benchmark: str
    config: MachineConfig
    scale: ExperimentScale
    seed: int

    @property
    def config_name(self) -> str:
        return self.config.name

    @property
    def group_id(self) -> tuple[str, int]:
        """Jobs with the same group share one generated trace."""
        return (self.benchmark, self.seed)

    def describe(self) -> str:
        return (
            f"{self.benchmark}/{self.config.name}"
            f"@{self.scale.name}:seed={self.seed}"
        )


def _standard_configs(window: int = 128) -> list[MachineConfig]:
    # Imported lazily: importing the campaign engine does not load the
    # config presets, and repro.api builds on this package.
    from repro.api import standard_configs

    return standard_configs(window)


@dataclass
class CampaignSpec:
    """A declarative sweep: benchmarks x configs x seeds at one scale.

    ``configs`` entries may be :class:`MachineConfig` objects or config
    spec strings (``nosq?backend.rob_size=256``, ``conventional@256``),
    resolved by :func:`repro.api.configs.resolve_config` — the config
    axis is string-addressable exactly like the benchmark axis.  A config
    that cannot run raises :class:`~repro.api.configs.ConfigSpecError`
    (a :class:`ValueError`) here."""

    benchmarks: Sequence[str]
    configs: Sequence[MachineConfig | str] = field(
        default_factory=_standard_configs
    )
    scale: ExperimentScale = DEFAULT
    seeds: Sequence[int] = (17,)
    name: str = "campaign"

    def __post_init__(self) -> None:
        # Imported lazily: repro.api builds on this package.
        from repro.api.configs import resolve_config

        self.benchmarks = list(self.benchmarks)
        # Every config, a spec string or a MachineConfig, is checked to be
        # runnable here, before any job builds a trace.
        self.configs = [resolve_config(config) for config in self.configs]
        self.seeds = list(self.seeds)
        # Validate through the trace-source layer: every benchmark id
        # must resolve (profiles, zoo.*/prog.* sources, trace:/extern: paths).
        from repro.traces import resolve_source

        unknown = []
        for benchmark in self.benchmarks:
            if benchmark in PROFILES:
                continue
            try:
                resolve_source(benchmark)
            except KeyError:
                unknown.append(benchmark)
            except FileNotFoundError as exc:
                raise ValueError(str(exc)) from None
        if unknown:
            raise ValueError(f"unknown benchmarks: {', '.join(unknown)}")
        if len(set(self.benchmarks)) != len(self.benchmarks):
            raise ValueError(f"duplicate benchmarks: {self.benchmarks}")
        if not self.seeds:
            raise ValueError("campaign needs at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError(f"duplicate seeds: {self.seeds}")
        names = [c.name for c in self.configs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate config names: {names}")

    @property
    def num_jobs(self) -> int:
        return len(self.benchmarks) * len(self.configs) * len(self.seeds)

    def jobs(self) -> Iterator[Job]:
        """Expand the cross product in deterministic (spec) order."""
        for seed in self.seeds:
            for benchmark in self.benchmarks:
                for config in self.configs:
                    yield Job(
                        benchmark=benchmark,
                        config=config,
                        scale=self.scale,
                        seed=seed,
                    )
