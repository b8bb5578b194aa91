"""Shape checks: the regenerated tables, figures and ablations look like
the paper's.

Each check sweeps a representative slice of benchmarks through
:func:`repro.api.sweep` over the config sets ``campaign report`` renders,
builds the section's points from the results, and asserts the qualitative
claim the paper makes about it.  One result cache is shared by the whole
module, so a (benchmark, config) pair that several sections need is
simulated once.

Scale selection: set ``REPRO_SCALE`` to ``smoke`` (default), ``default``,
or ``full``.  Statistical checks that need many measured loads only run
from 15,000 measured instructions up (``default`` and ``full``).
"""

from __future__ import annotations

import os

import pytest

from repro.api import sweep
from repro.harness import DEFAULT, FULL, SMOKE, geomean
from repro.harness.ablations import (
    CONFIDENCE,
    HYBRID,
    LOAD_QUEUE,
    SVW,
    TSSBF,
    ablation_points,
)
from repro.harness.figure2 import figure2_series
from repro.harness.figure4 import figure4_series
from repro.harness.figure5 import CAPACITY, HISTORY, figure5_series
from repro.harness.runner import amean
from repro.harness.table5 import table5_row
from repro.workloads.profiles import SELECTED_BENCHMARKS

_SCALES = {"smoke": SMOKE, "default": DEFAULT, "full": FULL}

#: A representative slice: the paper's selected benchmarks plus the
#: zero-communication and heavy-communication extremes.
FIGURE2_BENCHMARKS = [
    "adpcm.d", "g721.e", "gs.d", "mesa.o", "mpeg2.d", "pegwit.e",
    "bzip2", "eon.k", "gzip", "mcf", "vortex", "vpr.p",
    "applu", "apsi", "sixtrack", "wupwise",
]
#: A slice spanning the interesting behaviours: path-heavy (eon.k,
#: sixtrack), capacity-sensitive int (gzip, vortex), and insensitive fp.
FIGURE5_BENCHMARKS = [
    "g721.e", "mesa.o", "eon.k", "gzip", "vortex", "sixtrack", "applu",
]
ABLATION_BENCHMARKS = ["g721.e", "mesa.o", "gzip", "vortex", "applu"]


@pytest.fixture(scope="module")
def scale():
    return _SCALES[os.environ.get("REPRO_SCALE", "smoke")]


@pytest.fixture(scope="module")
def run(scale, tmp_path_factory):
    """``run(configs, benchmarks)`` -> per-benchmark results at *scale*."""
    cache = str(tmp_path_factory.mktemp("shapes-cache"))

    def run(configs, benchmarks):
        return sweep(
            configs, benchmarks, scale=scale, cache=cache, jobs=2,
        ).results()

    return run


def _study(run, columns):
    results = run(list(columns.values()), ABLATION_BENCHMARKS)
    return ablation_points(ABLATION_BENCHMARKS, results, columns)


def test_load_queue_elimination(run):
    points = _study(run, LOAD_QUEUE)
    # Section 3.4: "the performance of NoSQ with and without a load queue
    # is identical."
    for point in points:
        assert point.relative("nosq-nolq", "nosq-lq48") == pytest.approx(
            1.0, abs=0.02
        ), point.name


def test_tssbf_capacity(run):
    points = _study(run, TSSBF)
    # Re-execution rates fall monotonically-ish with filter capacity, and
    # the paper's 128-entry default keeps them tiny.
    for point in points:
        assert point.reexec_rate["tssbf-128"] <= point.reexec_rate["tssbf-32"]
    assert amean(p.reexec_rate["tssbf-128"] for p in points) < 0.05


def test_confidence_policy(run):
    points = _study(run, CONFIDENCE)
    # Stickier delay = fewer (or equal) mispredictions on the hard cases.
    by_name = {p.name: p for p in points}
    hard = by_name["mesa.o"]
    assert hard.mispredicts["conf-sticky"] <= hard.mispredicts["conf-eager"]


def test_hybrid_predictor(run):
    points = _study(run, HYBRID)
    # Without path sensitivity, path-dependent loads fall back to delay or
    # mispredict: aggregate cost must not be negative on average.
    penalty = amean(
        p.mispredicts["pred-plain"] + 10 * p.delayed_pct["pred-plain"]
        - p.mispredicts["pred-hybrid"] - 10 * p.delayed_pct["pred-hybrid"]
        for p in points
    )
    assert penalty > -10.0


def test_svw_filtering_value(run):
    points = _study(run, SVW)
    # Unfiltered re-execution must re-execute far more loads; the filter
    # keeps the rate near zero (paper: 0.7% of loads).
    for point in points:
        assert point.reexec_rate["svw-off"] > point.reexec_rate["svw-on"]
    assert amean(p.reexec_rate["svw-on"] for p in points) < 0.05


def test_figure2(run, scale):
    results = run("standard", FIGURE2_BENCHMARKS)
    points = figure2_series(FIGURE2_BENCHMARKS, results)
    # The realistic baseline sits close to the perfect-scheduling one, ...
    sq = geomean(p.relative["sq-storesets"] for p in points)
    assert 0.95 < sq < 1.15
    if scale.measured >= 15_000:
        # ... idealized SMB beats the realistic baseline on average, ...
        perfect = geomean(p.relative["nosq-perfect"] for p in points)
        assert perfect < sq + 0.01
        # ... and realistic NoSQ lands in the baseline's neighbourhood.
        nosq = geomean(p.relative["nosq-delay"] for p in points)
        assert abs(nosq - sq) < 0.12


def test_figure3(run):
    results = run("figure3", SELECTED_BENCHMARKS)
    points = figure2_series(SELECTED_BENCHMARKS, results, window=256)
    for point in points:
        # Everything stays within a sane band of the 256-window baseline.
        for value in point.relative.values():
            assert 0.6 < value < 1.6, (point.name, point.relative)


def test_figure4(run):
    results = run("figure4", SELECTED_BENCHMARKS)
    points = figure4_series(SELECTED_BENCHMARKS, results)
    by_name = {p.name: p for p in points}
    # Bypass-heavy benchmarks show large read reductions (mesa.o: ~40% in
    # the paper); low-communication benchmarks show little.
    assert by_name["mesa.o"].total_relative < 0.9
    assert by_name["applu"].total_relative > 0.8
    # The T-SSBF filters nearly all re-executions: the back-end share of
    # reads is tiny (paper: 0.7% of loads re-execute).
    assert amean(p.backend_relative for p in points) < 0.05
    # Average reduction in the right band (paper: ~9%).
    assert amean(p.total_relative for p in points) < 1.0


def test_figure5_capacity(run, scale):
    results = run(
        ["conventional-perfect", *CAPACITY.values()], FIGURE5_BENCHMARKS
    )
    points = figure5_series(FIGURE5_BENCHMARKS, results, CAPACITY)
    # The default 2K-entry predictor sits near the unbounded one on average.
    default = geomean(p.relative["nosq-2048e-8h"] for p in points)
    unbounded = geomean(p.relative["nosq-inf-8h"] for p in points)
    assert abs(default - unbounded) < (0.06 if scale.measured >= 15_000 else 0.12)


def test_figure5_history(run, scale):
    bounded = {
        label: spec for label, spec in HISTORY.items() if "2048e" in label
    }
    results = run(
        ["conventional-perfect", *bounded.values()], FIGURE5_BENCHMARKS
    )
    points = figure5_series(FIGURE5_BENCHMARKS, results, bounded)
    # Long-path benchmarks benefit from histories beyond 8 bits.
    slack = 0.05 if scale.measured >= 15_000 else 0.12
    by_name = {p.name: p for p in points}
    for name in ("eon.k", "sixtrack"):
        point = by_name[name]
        assert (
            point.relative["nosq-2048e-12h"]
            < point.relative["nosq-2048e-4h"] + slack
        ), name


def test_table5(run, scale):
    results = run("table5", FIGURE2_BENCHMARKS)
    rows = [table5_row(name, results[name]) for name in FIGURE2_BENCHMARKS]
    by_name = {row.name: row for row in rows}
    for row in rows:
        # Trace-level communication statistics track Table 5 closely.
        assert abs(row.meas_comm - row.paper_comm) < 6.0, row.name
    if scale.measured >= 15_000:
        # Statistical checks need enough measured loads to be stable.
        # Delay reduces mispredictions substantially where the paper
        # says so, and near-zero benchmarks stay near zero.
        for name in ("mesa.o", "gs.d", "sixtrack"):
            row = by_name[name]
            assert row.meas_delay < row.meas_nodelay / 2, name
        assert by_name["adpcm.d"].meas_nodelay < 10.0
