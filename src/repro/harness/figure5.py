"""Figure 5: bypassing-predictor sensitivity analysis.

Top: predictor capacity (512 / 1K / 2K / 4K / unbounded total entries, all
with 8 history bits).  The paper finds the 2K default within noise of
unbounded, while 512 entries costs SPECint ~4%.

Bottom: path-history length (4 / 6 / 8 / 10 / 12 bits) at 2K entries, with
an unbounded-capacity overlay.  Most benchmarks saturate by 6-8 bits; a few
(eon.k, sixtrack) keep improving past 8, and longer histories hurt the
bounded predictor through capacity pressure.

All numbers are execution times relative to the same baseline as Figure 2
(associative SQ + perfect scheduling).
"""

from __future__ import annotations

from typing import Sequence

from repro.api.configs import FIGURE5_CAPACITY, FIGURE5_HISTORY, resolve_config
from repro.harness.figure2 import BASELINE, Figure2Point, suite_geomeans
from repro.harness.runner import BenchmarkResult
from repro.harness.report import render_table
from repro.workloads.profiles import PROFILES

#: Column label -> config spec, top graph (``<entries>e``/``inf`` = total
#: predictor entries, ``<bits>h`` = history bits).
CAPACITY = dict(zip(
    ("nosq-512e-8h", "nosq-1024e-8h", "nosq-2048e-8h", "nosq-4096e-8h",
     "nosq-inf-8h"),
    FIGURE5_CAPACITY, strict=True,
))
#: Column label -> config spec, bottom graph.
HISTORY = dict(zip(
    (f"nosq-{size}-{bits}h"
     for size in ("2048e", "inf") for bits in (4, 6, 8, 10, 12)),
    FIGURE5_HISTORY, strict=True,
))


def figure5_series(
    benchmarks: Sequence[str],
    results: dict[str, BenchmarkResult],
    columns: dict[str, str],
) -> list[Figure2Point]:
    """One graph's points: each *columns* spec's execution time relative
    to the Figure 2 baseline, keyed by column label."""
    stored = {label: resolve_config(spec).name for label, spec in columns.items()}
    points = []
    for name in benchmarks:
        result = results[name]
        point = Figure2Point(
            name=name, suite=PROFILES[name].suite,
            baseline_ipc=result.runs[BASELINE].ipc,
        )
        for label, config_name in stored.items():
            point.relative[label] = result.relative_time(config_name, BASELINE)
        points.append(point)
    return points


def render_figure5(points: Sequence[Figure2Point], title: str) -> str:
    all_points = list(points) + suite_geomeans(points)
    keys = list(all_points[0].relative) if all_points else []
    headers = ["benchmark"] + keys
    rows = [
        [p.name] + [f"{p.relative[k]:.3f}" for k in keys] for p in all_points
    ]
    return render_table(headers, rows, title=title)
