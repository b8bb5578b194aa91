"""Tests for the experiment harness (runner + table/figure modules).

The table and figure modules simulate nothing: each test sweeps the
config set a section renders through :func:`repro.api.sweep` and builds
the section from the results, as ``repro campaign report`` does.
"""

import math

import pytest

from repro.api import standard_configs, sweep
from repro.harness import (
    ExperimentScale,
    figure2_series,
    figure4_series,
    figure5_series,
    geomean,
    render_figure2,
    render_figure4,
    render_figure5,
    render_table5,
    run_benchmark,
    table5_row,
)
from repro.harness.figure2 import BARS, suite_geomeans
from repro.harness.figure5 import CAPACITY, HISTORY
from repro.harness.report import render_table
from repro.harness.runner import amean
from repro.pipeline.config import MachineConfig

TINY = ExperimentScale("tiny", num_instructions=4_000, warmup=1_500)


def swept(configs, benchmarks):
    return sweep(configs, benchmarks, scale=TINY).results()


def rows_for(benchmarks):
    results = swept("table5", benchmarks)
    return [table5_row(name, results[name]) for name in benchmarks]


class TestRunner:
    def test_run_benchmark_collects_all_configs(self):
        result = run_benchmark("applu", standard_configs(), scale=TINY)
        assert set(result.runs) == {
            "sq-perfect", "sq-storesets", "nosq-nodelay",
            "nosq-delay", "nosq-perfect",
        }

    def test_relative_time(self):
        result = run_benchmark(
            "applu",
            [MachineConfig.conventional(), MachineConfig.nosq()],
            scale=TINY,
        )
        rel = result.relative_time("nosq-delay", "sq-storesets")
        assert 0.5 < rel < 2.0

    def test_geomean(self):
        assert geomean([2.0, 8.0]) == pytest.approx(4.0)
        assert math.isnan(geomean([]))

    def test_amean(self):
        assert amean([1.0, 3.0]) == 2.0

    def test_scale_measured(self):
        assert TINY.measured == 2_500


class TestTable5:
    def test_rows_have_paper_and_measured(self):
        rows = rows_for(["applu"])
        row = rows[0]
        assert row.paper_comm == 4.9
        assert row.meas_comm > 0
        assert row.meas_nodelay >= row.meas_delay or row.meas_nodelay < 30

    def test_render_contains_benchmarks(self):
        rows = rows_for(["applu", "adpcm.d"])
        text = render_table5(rows)
        assert "applu" in text and "adpcm.d" in text
        assert "media.avg" in text and "fp.avg" in text


class TestFigure2:
    @pytest.fixture(scope="class")
    def points(self):
        names = ["applu", "adpcm.d"]
        return figure2_series(names, swept("standard", names))

    def test_bars_present(self, points):
        for point in points:
            assert set(point.relative) == set(BARS)
            for value in point.relative.values():
                assert 0.3 < value < 3.0

    def test_geomeans_by_suite(self, points):
        means = suite_geomeans(points)
        names = {m.name for m in means}
        assert names == {"M.gmean", "F.gmean"}

    def test_render(self, points):
        text = render_figure2(points)
        assert "applu" in text and "nosq-delay (rel)" in text


class TestFigure3:
    def test_uses_256_window(self):
        results = swept("figure3", ["applu"])
        points = figure2_series(["applu"], results, window=256)
        assert points[0].relative  # computed against the w256 baseline
        text = render_figure2(points, title="Figure 3: 256-entry window")
        assert "256-entry window" in text


class TestFigure4:
    def test_split_reads(self):
        names = ["applu", "g721.e"]
        points = figure4_series(names, swept("figure4", names))
        for point in points:
            assert point.total_relative == pytest.approx(
                point.ooo_relative + point.backend_relative
            )
            assert 0.2 < point.total_relative < 1.5
        text = render_figure4(points)
        assert "back-end reads (rel)" in text


class TestFigure5:
    def test_capacity_sweep_labels(self):
        results = swept(["conventional-perfect", *CAPACITY.values()], ["applu"])
        points = figure5_series(["applu"], results, CAPACITY)
        keys = list(points[0].relative)
        assert "nosq-512e-8h" in keys
        assert "nosq-inf-8h" in keys

    def test_history_sweep_labels(self):
        bounded = {k: v for k, v in HISTORY.items() if "2048e" in k}
        results = swept(["conventional-perfect", *bounded.values()], ["applu"])
        points = figure5_series(["applu"], results, bounded)
        keys = list(points[0].relative)
        assert keys == [f"nosq-2048e-{b}h" for b in (4, 6, 8, 10, 12)]
        text = render_figure5(points, title="test")
        assert "applu" in text


class TestReport:
    def test_render_table_alignment(self):
        text = render_table(["a", "bb"], [[1, 2.5], ["x", "y"]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert len({len(line) for line in lines[2:]}) == 1
