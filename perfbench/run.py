#!/usr/bin/env python3
"""Run one benchmark workload and print its result as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload campaign-cold --seed 17 \\
        --seconds 25 --trace 0

``--trace 0`` prepares the workload's inputs from the seed (untimed), then
for ``--seconds`` seconds (and at least ``MIN_ROUNDS`` rounds) runs rounds
of the workload's timed units.  Each round starts with one set-up probe in
a fresh interpreter.  A reference that does the same kind of work as the
program (``loop_reference`` or ``startup_reference``) runs before and
after every probe and unit, so each one's CPU time is taken as a multiple
of what the reference took around it.  The end-to-end metrics are
``norm_cpu_s`` (the sum over units of each unit's median multiple),
``setup_s`` (the median multiple of the probes), both converted back to
seconds at ``REFERENCE_S``, and ``peak_rss_mb``.  README.md says why.

``--trace 1`` is the traced run: it runs the workload in this process
with one worker, untraced and with spans around each layer's public
functions (``spans.py``), and reports the per-layer metrics.  The spans
are written to ``.perfbench/spans-<workload>-<seed>.jsonl``.

Every iteration's outputs go through a digest gate: per job, a digest of
its ``RunStats`` and trace statistics (for ``campaign-rerun``, of the
report text and the cached/executed counts) is compared with the digests
recorded in ``expected.json`` for that workload and seed.  For a seed with
no recorded digests the first iteration becomes the reference, and an
independent serial re-run of one benchmark checks it.  The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"

#: Timed rounds per run, however long they take.  Each round is one
#: set-up probe in a fresh interpreter followed by every unit once.
MIN_ROUNDS = 5

#: CPU seconds each reference takes on one vCPU of the 2-vCPU sandbox the
#: benchmark was built on (Xeon, CPython 3.11.7) in its fastest state.
#: Multiples of a reference are reported as seconds at this speed.
REFERENCE_S = {"loop": 0.021, "startup": 0.063}

#: What the ``startup`` reference runs in a fresh interpreter: standard
#: library imports only, no code of the program.
STARTUP_CODE = (
    "import argparse, dataclasses, hashlib, json, pathlib, statistics, "
    "struct, zlib"
)


class Gate:
    """Compares each iteration's outputs with the expected digests."""

    def __init__(self, expected: dict[str, str] | None) -> None:
        self.reference = expected
        self.recorded = expected is not None
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, outputs: dict[str, str], problems: list[str]) -> None:
        if self.reference is None:
            self.reference = dict(outputs)
        labels = list(self.reference) + [
            label for label in outputs if label not in self.reference
        ]
        first = None
        bad = 0
        for label in labels:
            want, got = self.reference.get(label), outputs.get(label)
            if want != got:
                bad += 1
                if first is None:
                    first = f"{label}: got {got}, expected {want}"
        self.attempted += len(labels)
        if problems:
            bad = len(labels)
            self.messages.extend(problems)
        if bad:
            self.failed += bad
            if first is not None:
                self.messages.append(
                    f"{bad} output(s) differ; first differing: {first}"
                )

    def extra(self, problems: list[str]) -> None:
        """Failures found outside an iteration (the cross-check)."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.messages.extend(problems)

    @property
    def correct(self) -> bool:
        return self.failed == 0


def load_expected(workload: str, seed: int) -> dict[str, str] | None:
    """Recorded digests for *workload* at *seed*, by output label."""
    if not EXPECTED.is_file():
        return None
    table = json.loads(EXPECTED.read_text()).get(workload)
    if not table or str(seed) not in table["seeds"]:
        return None
    return dict(zip(table["labels"], table["seeds"][str(seed)]))


def probe_setup(workload: Any) -> float:
    """CPU seconds of one ``setup_probe.py`` run in a fresh interpreter,
    from its start until the campaign is planned."""
    from workloads import cli_env

    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"),
         json.dumps(workload.probe_plan())],
        cwd=workload.work, env=cli_env(), capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise RuntimeError(f"setup probe failed: {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])["cpu_s"]


def peak_rss_mb() -> float:
    """Largest peak RSS of this process and of any waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def loop_reference(cpus: list[int]) -> Callable[[], float]:
    """The ``loop`` reference: mean CPU seconds of the reference loop on
    each of *cpus*.  It stands for interpreted work: simulation, trace
    decoding, the campaign engine."""
    def sample() -> float:
        if len(cpus) == 1:
            return _reference_loop()
        allowed = os.sched_getaffinity(0)
        took = []
        try:
            for cpu in cpus:
                os.sched_setaffinity(0, {cpu})
                took.append(_reference_loop())
        finally:
            os.sched_setaffinity(0, allowed)
        return sum(took) / len(took)
    return sample


class _Node:
    __slots__ = ("key", "next", "ready")

    def __init__(self, key: int) -> None:
        self.key = key
        self.next: _Node | None = None
        self.ready = 0


def _reference_loop() -> float:
    """CPU seconds of a fixed pure-Python loop, and no code of the
    program: dict, tuple and list work, then a graph of small slotted
    objects built, indexed and walked, like the simulator's."""
    started = time.process_time()
    table: dict[int, int] = {}
    ring: list[Any] = [None] * 4096
    total = 0
    for i in range(40_000):
        entry = (i & 255, (i * 2654435761) & 0xFFFF)
        key = entry[1] ^ (entry[0] << 4)
        table[key] = table.get(key, 0) + entry[0]
        old = ring[i & 4095]
        if old is not None:
            total += old[0]
        ring[i & 4095] = entry
    nodes = [_Node((i * 2654435761) & 0xFFFF) for i in range(12_000)]
    index = {}
    for i, node in enumerate(nodes):
        node.next = nodes[(i * 7919) % len(nodes)]
        index[node.key] = node
    node = nodes[0]
    for _ in range(24_000):
        node.ready = node.next.ready + 1
        total += index.get(node.key & 0xFFF0, node).key
        node = node.next
    return time.process_time() - started


def startup_reference() -> float:
    """The ``startup`` reference: CPU seconds of a fresh interpreter that
    imports a few standard modules.  It stands for per-process work:
    start-up, imports, a short command."""
    from workloads import cpu_clock, cli_env

    started = cpu_clock()
    subprocess.run([sys.executable, "-c", STARTUP_CODE], env=cli_env(),
                   check=True)
    return cpu_clock() - started


class Multiples:
    """CPU times taken as multiples of a reference run around them.

    The host's speed changes by up to 2x in phases of a fraction of a
    second to minutes, and a reference that does the same kind of work
    slows with it, so the multiple stays where the raw time does not."""

    def __init__(self, kind: str, sample: Callable[[], float]) -> None:
        self.seconds = REFERENCE_S[kind]
        self.sample = sample
        self.last = 0.0
        self.fastest = float("inf")

    def restart(self) -> None:
        """Sample the reference before a new sequence of measurements."""
        self.last = self.sample()

    def measure(self, cpu_s: float) -> float:
        """The multiple of *cpu_s*, measured since the last sample."""
        before, self.last = self.last, self.sample()
        self.fastest = min(self.fastest, self.last)
        return cpu_s / ((before + self.last) / 2)


def measure(workload: Any, seconds: float, expected: dict[str, str] | None,
            min_rounds: int = MIN_ROUNDS) -> dict[str, Any]:
    """The untraced run: end-to-end metrics."""
    workload.prepare()
    allowed = sorted(os.sched_getaffinity(0))
    # A pooled workload runs on every CPU, so the reference samples each;
    # otherwise the run and all its children stay on one CPU, the one the
    # reference samples.
    cpus = allowed if workload.pooled else allowed[:1]
    os.sched_setaffinity(0, cpus)
    try:
        return _measure(workload, seconds, expected, min_rounds, cpus)
    finally:
        os.sched_setaffinity(0, allowed)


def _measure(workload, seconds, expected, min_rounds, cpus):
    from workloads import merge

    gate = Gate(expected)
    units = workload.units()
    multiples: list[list[float]] = [[] for _ in units]
    setup: list[float] = []
    raw_cpu = []
    # Set-up probes start a fresh interpreter, so the startup reference
    # suits them; the units use the reference their workload names.
    startup = Multiples("startup", startup_reference)
    per_unit = (startup if workload.reference == "startup"
                else Multiples("loop", loop_reference(cpus)))
    probe_setup(workload)  # warm-up: file caches, compiled modules
    start = time.perf_counter()
    startup.restart()
    last = None
    while len(setup) < min_rounds or time.perf_counter() - start < seconds:
        setup.append(startup.measure(probe_setup(workload)))
        if per_unit is not startup:
            per_unit.restart()
        done = []
        for i, unit in enumerate(units):
            done.append(workload.run_unit(unit))
            multiples[i].append(per_unit.measure(done[-1].cpu_s))
        if per_unit is not startup:
            startup.restart()
        last = merge(done)
        raw_cpu.append(last.cpu_s)
        gate.check(last.outputs, last.problems)
    gate.extra(workload.cross_check(last))

    median = statistics.median
    return result(gate, {
        "norm_cpu_s": (
            per_unit.seconds * sum(median(m) for m in multiples), "s"),
        "setup_s": (startup.seconds * median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }, notes=[
        f"{len(setup)} rounds of {len(units)} unit(s) against the "
        f"{workload.reference} reference; raw CPU seconds per round: "
        f"median {median(raw_cpu):.4f}, min {min(raw_cpu):.4f}; fastest "
        f"reference {per_unit.fastest:.4f} s, startup {startup.fastest:.4f} s",
    ])


def _stat_sum(records: list[dict[str, Any]], *fields: str) -> int:
    return sum(r["run_stats"][f] for r in records for f in fields)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def traced(workload: Any, expected: dict[str, str] | None,
           spans_path: Path) -> dict[str, Any]:
    """The traced run: per-layer metrics."""
    from spans import SPAN_NAMES, Tracer

    workload.prepare()
    gate = Gate(expected)
    tracer = Tracer()
    passes = workload.trace_passes
    # The first pass in a process is slower (allocator arenas, lazy
    # imports), so it only warms up; each traced pass is then followed by
    # an untraced one, and the overhead compares the two.
    first = workload.run_inprocess()
    gate.check(first.outputs, first.problems)
    untraced, traced_walls = [], []
    records: list[dict[str, Any]] = []
    for _ in range(passes):
        with tracer.install():
            run = workload.run_inprocess()
        gate.check(run.outputs, run.problems)
        traced_walls.append(run.wall_s)
        records = run.records
        plain = workload.run_inprocess()
        gate.check(plain.outputs, plain.problems)
        untraced.append(plain.wall_s)
    pool_speedup = 1.0
    if workload.pooled:
        # Pool workers start as fresh processes, so compare them with the
        # first in-process pass, which also starts cold.
        pooled = workload.run_sweep()
        gate.check(pooled.outputs, pooled.problems)
        pool_speedup = first.wall_s / pooled.wall_s
    tracer.write(spans_path)

    total_wall = sum(traced_walls)
    metrics: dict[str, tuple[float, str]] = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = (tracer.calls(name) // passes, "count")
        metrics[f"{name}.self_share"] = (
            _ratio(tracer.self_s(name), total_wall), "ratio"
        )
    sim_inst = tracer.counter("pipeline.run") // passes
    squashed = tracer.counter("ooo.squash") // passes
    loads = _stat_sum(records, "loads")
    bypass_mispredicts = _stat_sum(
        records, "flush_should_have_bypassed",
        "flush_should_not_have_bypassed", "flush_wrong_store",
        "flush_wrong_shift",
    )
    metrics.update({
        "experiments.cache_hit_ratio": (_ratio(
            tracer.counter("experiments.cache_get"),
            tracer.calls("experiments.cache_get")), "ratio"),
        "experiments.pool_speedup": (pool_speedup, "x"),
        "traces.load.inst_per_s": (_ratio(
            tracer.counter("traces.load"), tracer.self_s("traces.load")),
            "1/s"),
        "pipeline.sim_inst_per_s": (
            _ratio(sim_inst, statistics.median(untraced)), "1/s"),
        "pipeline.sim_cycles": (_stat_sum(records, "cycles"), "count"),
        "pipeline.dispatch_stall_cycles": (
            _stat_sum(records, "dispatch_stall_cycles"), "count"),
        "pipeline.flushes": (_stat_sum(records, "flushes"), "count"),
        "ooo.squashed_inst": (squashed, "count"),
        "ooo.useful_dispatch_ratio": (
            _ratio(sim_inst, sim_inst + squashed), "ratio"),
        "core.reexec_ratio": (
            _ratio(_stat_sum(records, "reexecuted_loads"), loads), "ratio"),
        "core.bypass_mispredicts_per_10k_loads": (
            _ratio(10_000 * bypass_mispredicts, loads), "1/10k"),
        "frontend.mispredict_ratio": (_ratio(
            _stat_sum(records, "branch_mispredicts"),
            _stat_sum(records, "branches")), "ratio"),
        "traced_wall_s": (statistics.median(traced_walls), "s"),
        "trace_overhead_s": (
            statistics.median(traced_walls) - statistics.median(untraced),
            "s"),
        "span_coverage": (_ratio(tracer.top_level_s, total_wall), "ratio"),
    })
    return result(gate, metrics, notes=[
        f"{passes} traced pass(es); first pass {first.wall_s:.3f} s, "
        f"untraced pass {statistics.median(untraced):.3f} s",
    ])


def result(gate: Gate, metrics: dict[str, tuple[float, str]],
           notes: list[str]) -> dict[str, Any]:
    return {
        "correct": gate.correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
        "notes": notes + [
            "digests: " + ("recorded" if gate.recorded else
                           "none recorded for this seed; first iteration "
                           "is the reference"),
        ] + gate.messages,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from the root "
              "of a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    scratch = ROOT / ".perfbench"
    work = scratch / f"{args.workload}-{args.seed}-{os.getpid()}"
    workload = WORKLOADS[args.workload](work, args.seed)
    expected = load_expected(args.workload, args.seed)
    try:
        if args.trace:
            spans_path = scratch / f"spans-{args.workload}-{args.seed}.jsonl"
            outcome = traced(workload, expected, spans_path)
        else:
            outcome = measure(workload, args.seconds, expected)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for note in outcome.pop("notes"):
        print(f"# {note}")
    for name, metric in outcome["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
