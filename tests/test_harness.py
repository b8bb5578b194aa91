"""Tests for the experiment harness (runner + report sections).

The report sections simulate nothing: each test sweeps the configs a
section's columns name through :func:`repro.api.sweep` and builds the
section from the results, as ``repro campaign report`` does.
"""

import dataclasses
import math

import pytest

from repro.api import standard_configs, sweep
from repro.harness import SECTIONS, ExperimentScale, geomean, run_benchmark
from repro.harness.report import render_table
from repro.harness.runner import amean
from repro.pipeline.config import MachineConfig

TINY = ExperimentScale("tiny", num_instructions=4_000, warmup=1_500)
BARS = ("sq-storesets", "nosq-nodelay", "nosq-delay", "nosq-perfect")


def swept(section, benchmarks):
    configs = list(section.columns.values())
    return sweep(configs, benchmarks, scale=TINY).results()


def rows_for(section, benchmarks):
    return section.rows(benchmarks, swept(section, benchmarks))


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
        row = rows_for(SECTIONS["table5"], ["applu"])["applu"]
        assert row["paper_comm"] == 4.9
        assert row["meas_comm"] > 0
        assert row["meas_nodelay"] >= row["meas_delay"] or row["meas_nodelay"] < 30

    def test_render_contains_benchmarks(self):
        names = ["applu", "adpcm.d"]
        text = SECTIONS["table5"].render(names, swept(SECTIONS["table5"], names))
        assert "applu" in text and "adpcm.d" in text
        assert "media.avg" in text and "fp.avg" in text


class TestFigure2:
    NAMES = ["applu", "adpcm.d"]

    @pytest.fixture(scope="class")
    def results(self):
        return swept(SECTIONS["figure2"], self.NAMES)

    @pytest.fixture(scope="class")
    def rows(self, results):
        return SECTIONS["figure2"].rows(self.NAMES, results)

    def test_bars_present(self, rows):
        for name in self.NAMES:
            relative = dict(rows[name])
            del relative["base IPC"]
            assert set(relative) == set(BARS)
            for value in relative.values():
                assert 0.3 < value < 3.0

    def test_geomeans_by_suite(self, rows):
        means = set(rows) - set(self.NAMES)
        assert means == {"M.gmean", "F.gmean"}

    def test_render(self, results):
        text = SECTIONS["figure2"].render(self.NAMES, results)
        assert "applu" in text and "nosq-delay (rel)" in text


class TestFigure3:
    def test_uses_256_window(self):
        figure3 = SECTIONS["figure3"]
        results = swept(figure3, ["applu"])
        assert all(config.endswith("-w256") for config in figure3.configs().values())
        assert figure3.rows(["applu"], results)["applu"]  # against the w256 baseline
        text = figure3.render(["applu"], results)
        assert "256-entry window" in text


class TestFigure4:
    def test_split_reads(self):
        figure4 = SECTIONS["figure4"]
        names = ["applu", "g721.e"]
        results = swept(figure4, names)
        rows = figure4.rows(names, results)
        text = figure4.render(names, results)
        for name in names:
            total = rows[name]["ooo_relative"] + rows[name]["backend_relative"]
            line = next(line for line in text.splitlines() if line.split()[0] == name)
            assert line.split()[3] == f"{total:.3f}"
            assert 0.2 < total < 1.5
        assert "back-end reads (rel)" in text


class TestFigure5:
    def test_capacity_sweep_labels(self):
        capacity = SECTIONS["figure5-capacity"]
        keys = list(rows_for(capacity, ["applu"])["applu"])
        assert "nosq-512e-8h" in keys
        assert "nosq-inf-8h" in keys

    def test_history_sweep_labels(self):
        history = SECTIONS["figure5-history"]
        bounded = dataclasses.replace(history, columns={
            label: spec for label, spec in history.columns.items()
            if "inf" not in label
        })
        results = swept(bounded, ["applu"])
        keys = list(bounded.rows(["applu"], results)["applu"])
        assert keys == [f"nosq-2048e-{b}h" for b in (4, 6, 8, 10, 12)]
        text = bounded.render(["applu"], results)
        assert "applu" in text


class TestReport:
    def test_render_table_alignment(self):
        text = render_table(["a", "bb"], [[1, 2.5], ["x", "y"]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert len({len(line) for line in lines[2:]}) == 1
