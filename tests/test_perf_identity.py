"""The hot-path overhaul must be bit-identical to the seed simulator.

``tests/data/golden_tiny_stats.json`` was generated by the pre-overhaul
(PR-1) simulator: every RunStats counter for five benchmarks x the five
standard configurations at a tiny scale.  The optimized cycle loop
(precomputed trace annotations, batched RAT pruning, SVW short-circuit,
idle-cycle fast-forward, inlined dispatch/commit fast paths) must
reproduce every counter exactly -- performance work is not allowed to
move a single statistic.  Its ``preset_stats`` section adds presets
outside the standard set (``conventional-smb``), recorded the same way
from the simulator before a later restructuring of their dispatch path.

Regenerate the fixture only when the *model* (not its implementation)
intentionally changes:

    PYTHONPATH=src python - <<'EOF'
    # see tests/test_perf_identity.py::regenerate for the exact recipe
    EOF
"""

import json
from pathlib import Path

import pytest

from repro.api import resolve_config, standard_configs
from repro.harness.runner import ExperimentScale, make_trace
from repro.pipeline.processor import Processor

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_tiny_stats.json"


def _counters(stats) -> dict:
    return {
        k: v for k, v in vars(stats).items()
        if isinstance(v, (int, float)) and k != "config_name"
    }


def load_golden():
    return json.loads(GOLDEN_PATH.read_text())


def regenerate(path: Path = GOLDEN_PATH) -> None:
    """Rebuild the fixture from the current simulator (manual use only)."""
    golden = load_golden()
    scale = ExperimentScale(
        "tiny",
        num_instructions=golden["scale"]["num_instructions"],
        warmup=golden["scale"]["warmup"],
    )
    stats_out = {}
    preset_out = {spec: {} for spec in golden["preset_stats"]}
    for bench in golden["stats"]:
        trace = make_trace(bench, scale, golden["seed"])
        stats_out[bench] = {}
        for config in standard_configs():
            stats = Processor(config).run(trace, warmup=scale.warmup)
            stats_out[bench][config.name] = _counters(stats)
        for spec in preset_out:
            stats = Processor(resolve_config(spec)).run(
                trace, warmup=scale.warmup
            )
            preset_out[spec][bench] = _counters(stats)
    payload = dict(golden, stats=stats_out, preset_stats=preset_out)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True))


GOLDEN = load_golden()
SCALE = ExperimentScale(
    "tiny",
    num_instructions=GOLDEN["scale"]["num_instructions"],
    warmup=GOLDEN["scale"]["warmup"],
)


@pytest.mark.parametrize("bench_name", sorted(GOLDEN["stats"]))
def test_optimized_processor_matches_seed_stats(bench_name):
    expected_by_config = GOLDEN["stats"][bench_name]
    trace = make_trace(bench_name, SCALE, GOLDEN["seed"])
    for config in standard_configs():
        stats = Processor(config).run(trace, warmup=SCALE.warmup)
        got = {
            k: v for k, v in vars(stats).items()
            if isinstance(v, (int, float)) and k != "config_name"
        }
        expected = expected_by_config[config.name]
        mismatched = {
            k: (expected.get(k), got.get(k))
            for k in set(expected) | set(got)
            if expected.get(k) != got.get(k)
        }
        assert not mismatched, (
            f"{bench_name}/{config.name}: counters diverged from the seed "
            f"simulator: {mismatched}"
        )


@pytest.mark.parametrize(
    "spec,bench_name",
    sorted(
        (spec, bench)
        for spec, per_bench in GOLDEN["preset_stats"].items()
        for bench in per_bench
    ),
)
def test_preset_matches_recorded_stats(spec, bench_name):
    """Presets outside the standard set, recorded from the simulator as it
    stood before their dispatch path was last restructured
    (``conventional-smb``: the opportunistic-SMB short-circuit rides on
    the conventional load scheduler)."""
    expected = GOLDEN["preset_stats"][spec][bench_name]
    trace = make_trace(bench_name, SCALE, GOLDEN["seed"])
    stats = Processor(resolve_config(spec)).run(trace, warmup=SCALE.warmup)
    got = _counters(stats)
    mismatched = {
        k: (expected.get(k), got.get(k))
        for k in set(expected) | set(got)
        if expected.get(k) != got.get(k)
    }
    assert not mismatched, f"{bench_name}/{spec}: {mismatched}"


def test_golden_covers_all_standard_configs():
    config_names = {c.name for c in standard_configs()}
    for benchmark, per_config in GOLDEN["stats"].items():
        assert set(per_config) == config_names, benchmark


@pytest.mark.parametrize("bench_name", sorted(GOLDEN["wrap_stats"]))
def test_ssn_wrap_runs_match_seed_stats(bench_name):
    """SSN-wraparound drains exercise the drain-wait idle path, where the
    fast-forwarded clock must not invent (or lose) stall statistics."""
    import dataclasses

    from repro.pipeline.config import MachineConfig

    expected_by_config = GOLDEN["wrap_stats"][bench_name]
    trace = make_trace(bench_name, SCALE, GOLDEN["seed"])
    for name, expected in expected_by_config.items():
        delay = "-nodelay" not in name
        config = dataclasses.replace(
            MachineConfig.nosq(delay=delay), ssn_bits=6, name=name
        )
        stats = Processor(config).run(trace, warmup=SCALE.warmup)
        assert stats.ssn_wraps > 0, "fixture must exercise wraparound"
        got = {
            k: v for k, v in vars(stats).items()
            if isinstance(v, (int, float)) and k != "config_name"
        }
        mismatched = {
            k: (expected.get(k), got.get(k))
            for k in set(expected) | set(got)
            if expected.get(k) != got.get(k)
        }
        assert not mismatched, f"{bench_name}/{name}: {mismatched}"
