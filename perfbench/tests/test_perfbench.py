"""Tests of the benchmark itself.

Run from the root of a checkout with ``python3 -m pytest -q perfbench/tests``.
The workloads run at a tiny size here: two profiles, 600 instructions.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
from repro.harness.runner import ExperimentScale  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    CampaignRerun,
    ColdCampaign,
    job_digest,
)

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]{1,64}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
TINY_SCALE = ExperimentScale("tiny", num_instructions=600, warmup=200)
TINY_PROFILES = ("gzip", "mcf")


def tiny(name: str, work: Path):
    return WORKLOADS[name](
        work / name, seed=3, profiles=TINY_PROFILES, scale=TINY_SCALE
    )


def declared(section: str) -> set[str]:
    return {metric["name"] for metric in BENCH[section]}


def test_names_and_units_are_well_formed():
    names = [w["name"] for w in BENCH["workloads"]]
    metrics = BENCH["end_to_end"] + BENCH["per_layer"]
    names += [m["name"] for m in metrics]
    assert all(NAME.match(name) for name in names), names
    assert len(set(names)) == len(names)
    assert all(UNIT.match(m["unit"]) for m in metrics)
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_run_emits_every_end_to_end_metric(name, tmp_path):
    outcome = run.measure(tiny(name, tmp_path), seconds=0, expected=None,
                          min_rounds=2)
    assert outcome["correct"], outcome["notes"]
    assert set(outcome["metrics"]) == declared("end_to_end")
    assert all(m["value"] > 0 for m in outcome["metrics"].values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_traced_run_emits_every_per_layer_metric(name, tmp_path):
    spans = tmp_path / "spans.jsonl"
    outcome = run.traced(tiny(name, tmp_path), None, spans)
    assert outcome["correct"], outcome["notes"]
    assert set(outcome["metrics"]) == declared("per_layer")
    metrics = {k: m["value"] for k, m in outcome["metrics"].items()}
    assert metrics["experiments.plan.calls"] == 1
    assert 0 < metrics["span_coverage"] <= 1
    lines = [json.loads(line) for line in spans.read_text().splitlines()]
    kept = [line for line in lines if "id" in line]
    assert kept and all(s["start"] <= s["end"] for s in kept)
    assert all(s["parent"] is None or s["parent"] < s["id"] for s in kept)


def test_digest_gate_fails_on_perturbed_run_stats(tmp_path):
    workload = tiny(ColdCampaign.name, tmp_path)
    workload.prepare()
    iteration = workload.run_once(jobs=1)
    gate = run.Gate(dict(iteration.outputs))
    gate.check(iteration.outputs, [])
    assert gate.correct

    record = iteration.records[3]
    perturbed = dict(record, run_stats=dict(
        record["run_stats"], cycles=record["run_stats"]["cycles"] + 1
    ))
    label = workload.label(record)
    outputs = dict(iteration.outputs, **{label: job_digest(perturbed)})
    gate.check(outputs, [])
    assert gate.failed == 1
    assert gate.attempted == 2 * len(outputs)
    assert any(label in message for message in gate.messages)


def test_rerun_starts_every_invocation_from_the_same_store(tmp_path):
    workload = tiny(CampaignRerun.name, tmp_path)
    workload.prepare()
    prepared = workload.store_path.read_bytes()
    seen = []
    cli = workload._cli

    def spy(args):
        if args[:2] == ["campaign", "run"]:
            seen.append(workload.store_path.read_bytes())
        return cli(args)

    workload._cli = spy
    first = workload.run_once()
    second = workload.run_once()
    assert seen == [prepared, prepared]
    assert len(workload.store_path.read_bytes()) > len(prepared)
    assert first.outputs == second.outputs
    assert not first.problems and not second.problems


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "campaign-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
