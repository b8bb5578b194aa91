"""Every table, figure and ablation of ``repro campaign report``, declared
once in :data:`SECTIONS` and rendered by :meth:`Section.render`.

A section names the config spec behind each of its columns, the numbers
one benchmark row reads from its :class:`BenchmarkResult`, how a row's
numbers print, and how its per-suite rows summarise them.  Sections
simulate nothing: they render results from a campaign store or from
:func:`repro.api.sweep`.

* **Table 5** -- % of committed loads with in-window (128-instruction)
  store-load communication, total and partial-word, from the trace's
  ground truth; bypassing mispredictions per 10k loads for NoSQ without
  and with delay; % of loads delayed.  Each cell is the paper's value
  (from the benchmark's profile) over the measured one.
* **Figures 2 and 3** -- execution time of the realistic baseline
  (associative SQ + StoreSets), NoSQ without and with delay and
  idealized NoSQ, relative to an associative SQ with perfect scheduling,
  on the 128-entry window and on the 256-entry one (window resources
  doubled, branch predictor quadrupled, bypassing predictor not
  enlarged).  Lower is better; the paper's headline is that NoSQ with
  delay sits at ~0.98 of the realistic baseline on average, ~0.99 on
  the larger window.
* **Figure 4** -- data-cache reads of NoSQ with delay relative to the
  baseline's, split into out-of-order-core and back-end re-execution
  reads.  The T-SSBF filters nearly all re-executions (the paper: 0.7%
  of loads), so NoSQ saves reads in proportion to its bypass rate: ~9%
  on average, up to 40% for mesa.o.
* **Figure 5** -- execution time, relative to Figure 2's baseline, over
  bypassing-predictor capacity (512 entries to unbounded, 8 history
  bits; the paper finds 2K within noise of unbounded) and path-history
  length (4-12 bits at 2K entries and unbounded; most benchmarks
  saturate by 6-8 bits, eon.k and sixtrack keep improving).
* **Ablations** -- the claims of the paper's prose: NoSQ performs the
  same with and without a load queue (Section 3.4); a smaller T-SSBF
  re-executes more (Sections 2.2/3.4); the confidence decrement trades
  mispredictions against delayed loads (Section 3.3); SVW filtering
  spares re-executing every speculative load (Section 2.2); the
  path-sensitive table captures path-dependent bypassing, which a
  PC-only predictor leaves to delay (Section 3.3).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

from repro.api.configs import (
    ABLATIONS,
    FIGURE5_CAPACITY,
    FIGURE5_HISTORY,
    SETS,
    STANDARD,
    resolve_config,
)
from repro.harness.report import render_table
from repro.harness.runner import BenchmarkResult, amean, geomean
from repro.workloads.profiles import PROFILES

if TYPE_CHECKING:
    from repro.pipeline.stats import RunStats

#: One row's numbers by name, in print order.
Numbers = dict[str, float]

#: Suite -> the initial its mean rows carry, in report order.
SUITES = {"media": "M", "int": "I", "fp": "F"}


@functools.cache
def stored_name(spec: str) -> str:
    """The config name the store files *spec*'s runs under (each spec is
    resolved once per process)."""
    return resolve_config(spec).name


@dataclass(frozen=True)
class Section:
    """One table, figure or ablation of the report."""

    title: str
    #: Column label -> the config spec whose runs the column reads.
    columns: Mapping[str, str]
    #: The headers after ``benchmark``.
    headers: Sequence[str]
    #: A benchmark's numbers from its result and its runs by column label.
    numbers: Callable[[BenchmarkResult, dict[str, RunStats]], Numbers]
    #: A row's printed cells from its numbers.
    cells: Callable[[Numbers], list[object]]
    #: The per-suite mean of each number (``None``: no suite rows), and
    #: the suite rows' label, formatted with ``suite`` and ``initial``.
    mean: Callable[[Iterable[float]], float] | None = None
    label: str = ""

    def configs(self) -> dict[str, str]:
        """Column label -> the stored config name it reads."""
        return {label: stored_name(spec) for label, spec in self.columns.items()}

    def covered(self, results: Mapping[str, BenchmarkResult]) -> list[str]:
        """The profiled benchmarks in *results* with a run for every
        column, in *results* order."""
        configs = self.configs().values()
        return [
            name for name, result in results.items()
            if name in PROFILES and all(c in result.runs for c in configs)
        ]

    def rows(
        self, benchmarks: Sequence[str], results: Mapping[str, BenchmarkResult]
    ) -> dict[str, Numbers]:
        """Each benchmark's numbers, then each suite's means, by row label."""
        configs = self.configs()
        rows = {
            name: self.numbers(results[name], {
                label: results[name].runs[config]
                for label, config in configs.items()
            })
            for name in benchmarks
        }
        if self.mean is not None:
            for suite, initial in SUITES.items():
                members = [
                    rows[name] for name in benchmarks
                    if PROFILES[name].suite == suite
                ]
                if members:
                    label = self.label.format(suite=suite, initial=initial)
                    rows[label] = {
                        key: self.mean(row[key] for row in members)
                        for key in members[0]
                    }
        return rows

    def render(
        self, benchmarks: Sequence[str], results: Mapping[str, BenchmarkResult]
    ) -> str:
        """The section as a table: :meth:`rows`, each printed by ``cells``."""
        body = [
            [label, *self.cells(numbers)]
            for label, numbers in self.rows(benchmarks, results).items()
        ]
        return render_table(["benchmark", *self.headers], body, title=self.title)


def _table5(result: BenchmarkResult, runs: dict[str, RunStats]) -> Numbers:
    profile = PROFILES[result.name]
    nodelay, delay = runs["nosq-nodelay"], runs["nosq-delay"]
    return {
        "paper_comm": profile.comm_pct,
        "meas_comm": result.trace_stats.pct_communicating,
        "paper_partial": profile.partial_pct,
        "meas_partial": result.trace_stats.pct_partial_word,
        "paper_nodelay": profile.nodelay_mispred,
        "meas_nodelay": nodelay.mispredicts_per_10k_loads,
        "paper_delay": profile.delay_mispred,
        "meas_delay": delay.mispredicts_per_10k_loads,
        "paper_delayed_pct": profile.delayed_pct,
        "meas_delayed_pct": delay.pct_loads_delayed,
    }


def _relative_times(
    result: BenchmarkResult, runs: dict[str, RunStats]
) -> Numbers:
    """Each column's execution time relative to the first column's."""
    baseline, *labels = runs
    return {label: runs[label].cycles / runs[baseline].cycles for label in labels}


def _figure2(result: BenchmarkResult, runs: dict[str, RunStats]) -> Numbers:
    return {"base IPC": runs["sq-perfect"].ipc, **_relative_times(result, runs)}


def _figure4(result: BenchmarkResult, runs: dict[str, RunStats]) -> Numbers:
    base_reads = max(1, runs["sq-storesets"].total_dcache_reads)
    nosq = runs["nosq-delay"]
    return {
        "ooo_relative": nosq.ooo_dcache_reads / base_reads,
        "backend_relative": nosq.backend_dcache_reads / base_reads,
        "reexec_rate": nosq.reexec_rate,
    }


def _columns(labels: Iterable[str], specs: Iterable[str]) -> dict[str, str]:
    return dict(zip(labels, specs, strict=True))


def _stats(*attributes: str) -> Callable[..., Numbers]:
    """Numbers ``<column>.<attribute>`` read from each column's run."""
    return lambda result, runs: {
        f"{label}.{attribute}": getattr(run, attribute)
        for label, run in runs.items() for attribute in attributes
    }


def _each(spec: str) -> Callable[[Numbers], list[object]]:
    """Cells printing every number with one format *spec*."""
    return lambda numbers: [format(value, spec) for value in numbers.values()]


def _relative(numbers: Numbers, label: str, baseline: str) -> float:
    """Column *label*'s cycles relative to column *baseline*'s."""
    return numbers[f"{label}.cycles"] / numbers[f"{baseline}.cycles"]


#: Figure 2's baseline and bars, labelled by their configs' names.
_FIGURE2_LABELS = (
    "sq-perfect", "sq-storesets", "nosq-nodelay", "nosq-delay", "nosq-perfect",
)
_TSSBF_SIZES = (32, 64, 128, 256)
_CONF_LABELS = ("eager", "default", "sticky")


def _figure2_section(title: str, specs: Iterable[str]) -> Section:
    return Section(
        title=title,
        columns=_columns(_FIGURE2_LABELS, specs),
        headers=("base IPC", *(f"{bar} (rel)" for bar in _FIGURE2_LABELS[1:])),
        numbers=_figure2,
        cells=lambda n: [
            f"{n['base IPC']:.2f}",
            *(f"{n[bar]:.3f}" for bar in _FIGURE2_LABELS[1:]),
        ],
        mean=geomean, label="{initial}.gmean",
    )


def _figure5_section(title: str, labels: Iterable[str], specs: Sequence[str]) -> Section:
    columns = _columns(labels, specs)
    return Section(
        title=title,
        columns={"sq-perfect": "conventional-perfect", **columns},
        headers=tuple(columns),
        numbers=_relative_times, cells=_each(".3f"),
        mean=geomean, label="{initial}.gmean",
    )


#: Every section in report order, by a short name.
SECTIONS: dict[str, Section] = {
    "table5": Section(
        title="Table 5: store-load communication and bypassing prediction "
              "accuracy",
        columns=_columns(("nosq-nodelay", "nosq-delay"), SETS["table5"][0]),
        headers=(
            "comm% (paper/meas)", "partial% (paper/meas)",
            "mispred/10k no-delay (p/m)", "mispred/10k delay (p/m)",
            "% delayed (p/m)",
        ),
        numbers=_table5,
        cells=lambda n: [
            f"{n['paper_' + key]:.1f}/{n['meas_' + key]:.1f}"
            for key in ("comm", "partial", "nodelay", "delay", "delayed_pct")
        ],
        mean=amean, label="{suite}.avg",
    ),
    "figure2": _figure2_section(
        "Figure 2: relative execution time, 128-entry window", STANDARD
    ),
    "figure3": _figure2_section(
        "Figure 3: relative execution time, 256-entry window",
        SETS["figure3"][0],
    ),
    "figure4": Section(
        title="Figure 4: data-cache reads, NoSQ relative to associative-SQ "
              "baseline",
        columns=_columns(("sq-storesets", "nosq-delay"), SETS["figure4"][0]),
        headers=(
            "ooo reads (rel)", "back-end reads (rel)", "total (rel)",
            "reexec rate",
        ),
        numbers=_figure4,
        # A suite row's total is the sum of its two means.
        cells=lambda n: [
            f"{n['ooo_relative']:.3f}",
            f"{n['backend_relative']:.4f}",
            f"{n['ooo_relative'] + n['backend_relative']:.3f}",
            f"{100 * n['reexec_rate']:.2f}%",
        ],
        mean=amean, label="{initial}.amean",
    ),
    "figure5-capacity": _figure5_section(
        "Figure 5 (top): predictor capacity sweep",
        (f"nosq-{size}-8h" for size in ("512e", "1024e", "2048e", "4096e", "inf")),
        FIGURE5_CAPACITY,
    ),
    "figure5-history": _figure5_section(
        "Figure 5 (bottom): path-history length sweep",
        (f"nosq-{size}-{bits}h"
         for size in ("2048e", "inf") for bits in (4, 6, 8, 10, 12)),
        FIGURE5_HISTORY,
    ),
    "load-queue": Section(
        title="Ablation: load-queue elimination (paper: identical performance)",
        columns=_columns(("nosq-lq48", "nosq-nolq"), ABLATIONS["load_queue"]),
        headers=("cycles (48-entry LQ)", "cycles (no LQ)", "no-LQ rel."),
        numbers=_stats("cycles"),
        cells=lambda n: [
            n["nosq-lq48.cycles"], n["nosq-nolq.cycles"],
            f"{_relative(n, 'nosq-nolq', 'nosq-lq48'):.4f}",
        ],
    ),
    "tssbf": Section(
        title="Ablation: T-SSBF capacity vs re-execution rate",
        columns=_columns((f"tssbf-{size}" for size in _TSSBF_SIZES), ABLATIONS["tssbf"]),
        headers=(
            *(f"{size}e reexec%" for size in _TSSBF_SIZES),
            *(f"{size}e rel.time" for size in _TSSBF_SIZES),
        ),
        numbers=_stats("reexec_rate", "cycles"),
        cells=lambda n: [
            *(f"{100 * n[f'tssbf-{size}.reexec_rate']:.2f}"
              for size in _TSSBF_SIZES),
            *(f"{_relative(n, f'tssbf-{size}', 'tssbf-256'):.3f}"
              for size in _TSSBF_SIZES),
        ],
    ),
    "confidence": Section(
        title="Ablation: confidence decrement vs mispredictions/delay",
        columns=_columns((f"conf-{label}" for label in _CONF_LABELS), ABLATIONS["confidence"]),
        headers=tuple(
            f"{label} {stat}" for label in _CONF_LABELS
            for stat in ("m10k", "del%")
        ),
        numbers=_stats("mispredicts_per_10k_loads", "pct_loads_delayed"),
        cells=_each(".1f"),
    ),
    "svw": Section(
        title="Ablation: SVW re-execution filtering vs unfiltered "
              "re-execution",
        columns=_columns(("svw-on", "svw-off"), ABLATIONS["svw"]),
        headers=("reexec% (SVW)", "reexec% (unfiltered)", "unfiltered rel.time"),
        numbers=_stats("reexec_rate", "cycles"),
        cells=lambda n: [
            f"{100 * n['svw-on.reexec_rate']:.2f}",
            f"{100 * n['svw-off.reexec_rate']:.2f}",
            f"{_relative(n, 'svw-off', 'svw-on'):.3f}",
        ],
    ),
    "hybrid": Section(
        title="Ablation: hybrid path-sensitive predictor vs PC-only",
        columns=_columns(("pred-hybrid", "pred-plain"), ABLATIONS["hybrid"]),
        headers=(
            "hybrid m10k", "plain m10k", "hybrid del%", "plain del%",
            "plain rel.time",
        ),
        numbers=_stats(
            "mispredicts_per_10k_loads", "pct_loads_delayed", "cycles"
        ),
        cells=lambda n: [
            f"{n['pred-hybrid.mispredicts_per_10k_loads']:.1f}",
            f"{n['pred-plain.mispredicts_per_10k_loads']:.1f}",
            f"{n['pred-hybrid.pct_loads_delayed']:.1f}",
            f"{n['pred-plain.pct_loads_delayed']:.1f}",
            f"{_relative(n, 'pred-plain', 'pred-hybrid'):.3f}",
        ],
    ),
}
