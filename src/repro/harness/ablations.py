"""Ablation studies for the design choices DESIGN.md calls out.

These go beyond the paper's published sensitivity analysis (Figure 5) and
probe the claims made in its prose:

* **Load-queue elimination** (Section 3.4): "the performance of NoSQ with
  and without a load queue is identical."
* **T-SSBF sizing** (Sections 2.2/3.4): the tagged filter keeps
  re-execution rates near zero with only 1KB; shrinking it raises the
  re-execution (and with it data-cache port) pressure.
* **Confidence policy** (Section 3.3): the delay decision trades residual
  mispredictions against delayed loads.
* **Hybrid organization** (Section 3.3): the path-sensitive table is what
  captures path-dependent bypassing; removing it (history_bits=0 collapses
  both tables onto the load PC) leaves those loads to the delay mechanism.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.api.configs import ABLATIONS, resolve_config
from repro.harness.report import render_table
from repro.harness.runner import BenchmarkResult


def _columns(labels: Sequence[str], study: str) -> dict[str, str]:
    """Column label -> config spec for one study of the ``ablations``
    config set."""
    return dict(zip(labels, ABLATIONS[study], strict=True))


@dataclass
class AblationPoint:
    """One benchmark's measurements across ablation variants."""

    name: str
    cycles: dict[str, int] = field(default_factory=dict)
    mispredicts: dict[str, float] = field(default_factory=dict)
    delayed_pct: dict[str, float] = field(default_factory=dict)
    reexec_rate: dict[str, float] = field(default_factory=dict)

    def relative(self, variant: str, baseline: str) -> float:
        return self.cycles[variant] / self.cycles[baseline]


def ablation_points(
    benchmarks: Sequence[str],
    results: dict[str, BenchmarkResult],
    columns: dict[str, str],
) -> list[AblationPoint]:
    """One study's points from the runs in *results*, keyed by column
    label (*columns* maps each label to its config spec)."""
    stored = {label: resolve_config(spec).name for label, spec in columns.items()}
    points = []
    for name in benchmarks:
        point = AblationPoint(name=name)
        for label, config_name in stored.items():
            stats = results[name].runs[config_name]
            point.cycles[label] = stats.cycles
            point.mispredicts[label] = stats.mispredicts_per_10k_loads
            point.delayed_pct[label] = stats.pct_loads_delayed
            point.reexec_rate[label] = stats.reexec_rate
        points.append(point)
    return points


# --------------------------------------------------------------------- #
# Load-queue elimination
# --------------------------------------------------------------------- #

#: NoSQ with the paper's 48-entry load queue vs without one.
LOAD_QUEUE = _columns(("nosq-lq48", "nosq-nolq"), "load_queue")


def render_load_queue(points: Sequence[AblationPoint]) -> str:
    rows = [
        [p.name, p.cycles["nosq-lq48"], p.cycles["nosq-nolq"],
         f"{p.relative('nosq-nolq', 'nosq-lq48'):.4f}"]
        for p in points
    ]
    return render_table(
        ["benchmark", "cycles (48-entry LQ)", "cycles (no LQ)", "no-LQ rel."],
        rows,
        title="Ablation: load-queue elimination (paper: identical performance)",
    )


# --------------------------------------------------------------------- #
# T-SSBF sizing
# --------------------------------------------------------------------- #

#: The T-SSBF entry count around the paper's 128-entry default.
TSSBF_SWEEP = (32, 64, 128, 256)
TSSBF = _columns([f"tssbf-{entries}" for entries in TSSBF_SWEEP], "tssbf")


def render_tssbf(points: Sequence[AblationPoint]) -> str:
    headers = ["benchmark"] + [
        f"{entries}e reexec%" for entries in TSSBF_SWEEP
    ] + [f"{entries}e rel.time" for entries in TSSBF_SWEEP]
    rows = []
    for p in points:
        base = p.cycles[f"tssbf-{TSSBF_SWEEP[-1]}"]
        rows.append(
            [p.name]
            + [f"{100 * p.reexec_rate[f'tssbf-{e}']:.2f}" for e in TSSBF_SWEEP]
            + [f"{p.cycles[f'tssbf-{e}'] / base:.3f}" for e in TSSBF_SWEEP]
        )
    return render_table(
        headers, rows,
        title="Ablation: T-SSBF capacity vs re-execution rate",
    )


# --------------------------------------------------------------------- #
# Confidence / delay policy
# --------------------------------------------------------------------- #

#: Confidence decrements: ``eager`` is small (delay engages reluctantly),
#: ``sticky`` a full reset (delay engages after one repeat offence).
CONF_SWEEP = ("eager", "default", "sticky")
CONFIDENCE = _columns([f"conf-{label}" for label in CONF_SWEEP], "confidence")


def render_confidence(points: Sequence[AblationPoint]) -> str:
    headers = ["benchmark"]
    for label in CONF_SWEEP:
        headers += [f"{label} m10k", f"{label} del%"]
    rows = []
    for p in points:
        row = [p.name]
        for label in CONF_SWEEP:
            row += [
                f"{p.mispredicts[f'conf-{label}']:.1f}",
                f"{p.delayed_pct[f'conf-{label}']:.1f}",
            ]
        rows.append(row)
    return render_table(
        headers, rows,
        title="Ablation: confidence decrement vs mispredictions/delay",
    )


# --------------------------------------------------------------------- #
# SVW filtering value
# --------------------------------------------------------------------- #

#: SVW-filtered re-execution vs re-executing every speculative load.
#: Section 2.2: without filtering, aggressive load speculation "would
#: seemingly require re-executing all loads ... or would otherwise induce
#: overheads that overwhelm the benefit of the speculation itself."
SVW = _columns(("svw-on", "svw-off"), "svw")


def render_svw(points: Sequence[AblationPoint]) -> str:
    rows = [
        [
            p.name,
            f"{100 * p.reexec_rate['svw-on']:.2f}",
            f"{100 * p.reexec_rate['svw-off']:.2f}",
            f"{p.relative('svw-off', 'svw-on'):.3f}",
        ]
        for p in points
    ]
    return render_table(
        ["benchmark", "reexec% (SVW)", "reexec% (unfiltered)",
         "unfiltered rel.time"],
        rows,
        title="Ablation: SVW re-execution filtering vs unfiltered re-execution",
    )


# --------------------------------------------------------------------- #
# Hybrid predictor organization
# --------------------------------------------------------------------- #

#: Hybrid (default) vs path-insensitive-only prediction.
HYBRID = _columns(("pred-hybrid", "pred-plain"), "hybrid")


def render_hybrid(points: Sequence[AblationPoint]) -> str:
    rows = [
        [
            p.name,
            f"{p.mispredicts['pred-hybrid']:.1f}",
            f"{p.mispredicts['pred-plain']:.1f}",
            f"{p.delayed_pct['pred-hybrid']:.1f}",
            f"{p.delayed_pct['pred-plain']:.1f}",
            f"{p.relative('pred-plain', 'pred-hybrid'):.3f}",
        ]
        for p in points
    ]
    return render_table(
        ["benchmark", "hybrid m10k", "plain m10k",
         "hybrid del%", "plain del%", "plain rel.time"],
        rows,
        title="Ablation: hybrid path-sensitive predictor vs PC-only",
    )


#: Every study's columns and renderer, in report order.
STUDIES = (
    (LOAD_QUEUE, render_load_queue),
    (TSSBF, render_tssbf),
    (CONFIDENCE, render_confidence),
    (SVW, render_svw),
    (HYBRID, render_hybrid),
)
