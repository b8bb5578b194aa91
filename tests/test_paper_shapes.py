"""Shape checks: the regenerated tables, figures and ablations look like
the paper's.

Each check sweeps a representative slice of benchmarks through
:func:`repro.api.sweep` over the config sets ``campaign report`` renders,
builds the section's rows from the results, and asserts the qualitative
claim the paper makes about it.  One result cache is shared by the whole
module, so a (benchmark, config) pair that several sections need is
simulated once.

Scale selection: set ``REPRO_SCALE`` to ``smoke`` (default), ``default``,
or ``full``.  Statistical checks that need many measured loads only run
from 15,000 measured instructions up (``default`` and ``full``).
"""

from __future__ import annotations

import dataclasses
import os

import pytest

from repro.api import sweep
from repro.harness import DEFAULT, FULL, SMOKE, SECTIONS, geomean
from repro.harness.runner import amean
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


def _rows(run, section, benchmarks, configs=None):
    """*section*'s rows for *benchmarks* (no suite means), in order."""
    results = run(configs or list(section.columns.values()), benchmarks)
    rows = section.rows(benchmarks, results)
    return [rows[name] for name in benchmarks]


def _study(run, name):
    return zip(
        ABLATION_BENCHMARKS, _rows(run, SECTIONS[name], ABLATION_BENCHMARKS)
    )


def test_load_queue_elimination(run):
    # Section 3.4: "the performance of NoSQ with and without a load queue
    # is identical."
    for name, row in _study(run, "load-queue"):
        assert row["nosq-nolq.cycles"] / row["nosq-lq48.cycles"] == pytest.approx(
            1.0, abs=0.02
        ), name


def test_tssbf_capacity(run):
    rows = [row for _, row in _study(run, "tssbf")]
    # Re-execution rates fall monotonically-ish with filter capacity, and
    # the paper's 128-entry default keeps them tiny.
    for row in rows:
        assert row["tssbf-128.reexec_rate"] <= row["tssbf-32.reexec_rate"]
    assert amean(row["tssbf-128.reexec_rate"] for row in rows) < 0.05


def test_confidence_policy(run):
    by_name = dict(_study(run, "confidence"))
    # Stickier delay = fewer (or equal) mispredictions on the hard cases.
    hard = by_name["mesa.o"]
    assert (
        hard["conf-sticky.mispredicts_per_10k_loads"]
        <= hard["conf-eager.mispredicts_per_10k_loads"]
    )


def test_hybrid_predictor(run):
    rows = [row for _, row in _study(run, "hybrid")]
    # Without path sensitivity, path-dependent loads fall back to delay or
    # mispredict: aggregate cost must not be negative on average.
    penalty = amean(
        r["pred-plain.mispredicts_per_10k_loads"]
        + 10 * r["pred-plain.pct_loads_delayed"]
        - r["pred-hybrid.mispredicts_per_10k_loads"]
        - 10 * r["pred-hybrid.pct_loads_delayed"]
        for r in rows
    )
    assert penalty > -10.0


def test_svw_filtering_value(run):
    rows = [row for _, row in _study(run, "svw")]
    # Unfiltered re-execution must re-execute far more loads; the filter
    # keeps the rate near zero (paper: 0.7% of loads).
    for row in rows:
        assert row["svw-off.reexec_rate"] > row["svw-on.reexec_rate"]
    assert amean(row["svw-on.reexec_rate"] for row in rows) < 0.05


def test_figure2(run, scale):
    rows = _rows(run, SECTIONS["figure2"], FIGURE2_BENCHMARKS, "standard")
    # The realistic baseline sits close to the perfect-scheduling one, ...
    sq = geomean(row["sq-storesets"] for row in rows)
    assert 0.95 < sq < 1.15
    if scale.measured >= 15_000:
        # ... idealized SMB beats the realistic baseline on average, ...
        perfect = geomean(row["nosq-perfect"] for row in rows)
        assert perfect < sq + 0.01
        # ... and realistic NoSQ lands in the baseline's neighbourhood.
        nosq = geomean(row["nosq-delay"] for row in rows)
        assert abs(nosq - sq) < 0.12


def test_figure3(run):
    rows = _rows(run, SECTIONS["figure3"], SELECTED_BENCHMARKS, "figure3")
    for name, row in zip(SELECTED_BENCHMARKS, rows):
        # Everything stays within a sane band of the 256-window baseline.
        relative = {bar: value for bar, value in row.items() if bar != "base IPC"}
        for value in relative.values():
            assert 0.6 < value < 1.6, (name, relative)


def test_figure4(run):
    rows = _rows(run, SECTIONS["figure4"], SELECTED_BENCHMARKS, "figure4")
    by_name = dict(zip(SELECTED_BENCHMARKS, rows))

    def total(row):
        return row["ooo_relative"] + row["backend_relative"]

    # Bypass-heavy benchmarks show large read reductions (mesa.o: ~40% in
    # the paper); low-communication benchmarks show little.
    assert total(by_name["mesa.o"]) < 0.9
    assert total(by_name["applu"]) > 0.8
    # The T-SSBF filters nearly all re-executions: the back-end share of
    # reads is tiny (paper: 0.7% of loads re-execute).
    assert amean(row["backend_relative"] for row in rows) < 0.05
    # Average reduction in the right band (paper: ~9%).
    assert amean(total(row) for row in rows) < 1.0


def test_figure5_capacity(run, scale):
    rows = _rows(run, SECTIONS["figure5-capacity"], FIGURE5_BENCHMARKS)
    # The default 2K-entry predictor sits near the unbounded one on average.
    default = geomean(row["nosq-2048e-8h"] for row in rows)
    unbounded = geomean(row["nosq-inf-8h"] for row in rows)
    assert abs(default - unbounded) < (0.06 if scale.measured >= 15_000 else 0.12)


def test_figure5_history(run, scale):
    history = SECTIONS["figure5-history"]
    bounded = dataclasses.replace(history, columns={
        label: spec for label, spec in history.columns.items()
        if "inf" not in label
    })
    rows = _rows(run, bounded, FIGURE5_BENCHMARKS)
    # Long-path benchmarks benefit from histories beyond 8 bits.
    slack = 0.05 if scale.measured >= 15_000 else 0.12
    by_name = dict(zip(FIGURE5_BENCHMARKS, rows))
    for name in ("eon.k", "sixtrack"):
        row = by_name[name]
        assert row["nosq-2048e-12h"] < row["nosq-2048e-4h"] + slack, name


def test_table5(run, scale):
    rows = _rows(run, SECTIONS["table5"], FIGURE2_BENCHMARKS, "table5")
    by_name = dict(zip(FIGURE2_BENCHMARKS, rows))
    for name, row in by_name.items():
        # Trace-level communication statistics track Table 5 closely.
        assert abs(row["meas_comm"] - row["paper_comm"]) < 6.0, name
    if scale.measured >= 15_000:
        # Statistical checks need enough measured loads to be stable.
        # Delay reduces mispredictions substantially where the paper
        # says so, and near-zero benchmarks stay near zero.
        for name in ("mesa.o", "gs.d", "sixtrack"):
            row = by_name[name]
            assert row["meas_delay"] < row["meas_nodelay"] / 2, name
        assert by_name["adpcm.d"]["meas_nodelay"] < 10.0
