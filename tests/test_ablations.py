"""Tests for the ablation-study sections: each study's columns swept
through :func:`repro.api.sweep` and rendered from the results."""

import pytest

from repro.api import sweep
from repro.harness import SECTIONS
from repro.harness.runner import ExperimentScale

TINY = ExperimentScale("tiny", num_instructions=4_000, warmup=1_500)
BENCH = ["applu", "g721.e"]


def study(name, benchmarks):
    """The study's rows by benchmark and its rendered table."""
    section = SECTIONS[name]
    configs = list(section.columns.values())
    results = sweep(configs, benchmarks, scale=TINY).results()
    rows = section.rows(benchmarks, results)
    return [rows[b] for b in benchmarks], section.render(benchmarks, results)


class TestLoadQueueAblation:
    def test_variants_and_render(self):
        rows, text = study("load-queue", BENCH)
        assert set(rows[0]) == {"nosq-lq48.cycles", "nosq-nolq.cycles"}
        assert "no-LQ rel." in text and "applu" in text

    def test_performance_near_identical(self):
        rows, _ = study("load-queue", BENCH)
        for row in rows:
            assert row["nosq-nolq.cycles"] / row["nosq-lq48.cycles"] == pytest.approx(
                1.0, abs=0.05
            )


class TestTssbfAblation:
    def test_sweep_and_render(self):
        rows, text = study("tssbf", ["g721.e"])
        assert "tssbf-32.reexec_rate" in rows[0]
        assert "tssbf-256.reexec_rate" in rows[0]
        assert "reexec%" in text

    def test_smaller_filter_reexecutes_more(self):
        rows, _ = study("tssbf", ["g721.e"])
        row = rows[0]
        assert row["tssbf-32.reexec_rate"] >= row["tssbf-256.reexec_rate"]


class TestConfidenceAblation:
    def test_variants(self):
        rows, text = study("confidence", ["g721.e"])
        assert {key for key in rows[0] if key.endswith(".mispredicts_per_10k_loads")} == {
            f"conf-{label}.mispredicts_per_10k_loads"
            for label in ("eager", "default", "sticky")
        }
        assert "del%" in text


class TestHybridAblation:
    def test_variants(self):
        rows, text = study("hybrid", ["applu"])
        assert {key for key in rows[0] if key.endswith(".cycles")} == {
            "pred-hybrid.cycles", "pred-plain.cycles",
        }
        assert "plain m10k" in text


class TestSvwAblation:
    def test_unfiltered_reexecutes_more(self):
        rows, text = study("svw", ["g721.e"])
        row = rows[0]
        assert row["svw-off.reexec_rate"] > row["svw-on.reexec_rate"]
        assert "unfiltered rel.time" in text
