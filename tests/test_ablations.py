"""Tests for the ablation-study harness: each study's columns swept
through :func:`repro.api.sweep` and rendered from the results."""

import pytest

from repro.api import sweep
from repro.harness.ablations import (
    CONFIDENCE,
    HYBRID,
    LOAD_QUEUE,
    SVW,
    TSSBF,
    ablation_points,
    render_confidence,
    render_hybrid,
    render_load_queue,
    render_svw,
    render_tssbf,
)
from repro.harness.runner import ExperimentScale

TINY = ExperimentScale("tiny", num_instructions=4_000, warmup=1_500)
BENCH = ["applu", "g721.e"]


def study(columns, benchmarks):
    results = sweep(list(columns.values()), benchmarks, scale=TINY).results()
    return ablation_points(benchmarks, results, columns)


class TestLoadQueueAblation:
    def test_variants_and_render(self):
        points = study(LOAD_QUEUE, BENCH)
        assert set(points[0].cycles) == {"nosq-lq48", "nosq-nolq"}
        text = render_load_queue(points)
        assert "no-LQ rel." in text and "applu" in text

    def test_performance_near_identical(self):
        points = study(LOAD_QUEUE, BENCH)
        for point in points:
            assert point.relative("nosq-nolq", "nosq-lq48") == pytest.approx(
                1.0, abs=0.05
            )


class TestTssbfAblation:
    def test_sweep_and_render(self):
        points = study(TSSBF, ["g721.e"])
        assert "tssbf-32" in points[0].reexec_rate
        assert "tssbf-256" in points[0].reexec_rate
        text = render_tssbf(points)
        assert "reexec%" in text

    def test_smaller_filter_reexecutes_more(self):
        points = study(TSSBF, ["g721.e"])
        point = points[0]
        assert point.reexec_rate["tssbf-32"] >= point.reexec_rate["tssbf-256"]


class TestConfidenceAblation:
    def test_variants(self):
        points = study(CONFIDENCE, ["g721.e"])
        assert set(points[0].mispredicts) == {
            "conf-eager", "conf-default", "conf-sticky",
        }
        assert "del%" in render_confidence(points)


class TestHybridAblation:
    def test_variants(self):
        points = study(HYBRID, ["applu"])
        assert set(points[0].cycles) == {"pred-hybrid", "pred-plain"}
        assert "plain m10k" in render_hybrid(points)


class TestSvwAblation:
    def test_unfiltered_reexecutes_more(self):
        points = study(SVW, ["g721.e"])
        point = points[0]
        assert point.reexec_rate["svw-off"] > point.reexec_rate["svw-on"]
        assert "unfiltered rel.time" in render_svw(points)
