#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --seeds 17            # every metric, once
    python3 perfbench/spread.py --seeds 1-10          # medians and spreads
    python3 perfbench/spread.py --seeds 1-10 --baseline perfbench/baseline.json
    python3 perfbench/spread.py --seeds 17 --trace    # per-layer metrics

Each (workload, seed) is one ``run.py`` process; seeds are the outer loop
so slow drift of the host spreads over all workloads alike.  For each
workload the table gives every metric by name with its unit, its median,
first and third quartiles (``statistics.quantiles(values, n=4)``) and the
spread ``(q3 - q1) / median``, flagged when it is not below a third of the
metric's bound in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    """``"1-10,17"`` -> ``[1, 2, ..., 10, 17]``."""
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_one(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds),
        "--trace", "1" if trace else "0",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(
            f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}"
        )
    lines = done.stdout.strip().splitlines()
    for line in lines[:-1]:
        if line.startswith("# ") and "differ" in line:
            print(f"  {workload} seed {seed}: {line[2:]}", file=sys.stderr)
    return json.loads(lines[-1])


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median, "q1": median, "q3": median, "spread": 0.0,
                "values": values}
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread,
            "values": values}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="17", type=parse_seeds)
    parser.add_argument("--workloads", default=None,
                        help="comma list (default: every workload)")
    parser.add_argument("--seconds", type=int, default=None,
                        help="seconds per run (default: run_seconds)")
    parser.add_argument("--trace", action="store_true",
                        help="traced runs: per-layer metrics")
    parser.add_argument("--baseline", type=Path, default=None,
                        help="write the summary to this JSON file")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seconds = args.seconds or bench["run_seconds"]
    declared = bench["per_layer" if args.trace else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in declared}

    values: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
    units: dict[str, str] = {}
    verdicts: dict[str, list[str]] = {w: [] for w in workloads}
    for seed in args.seeds:
        for workload in workloads:
            outcome = run_one(workload, seed, seconds, args.trace)
            if not outcome["correct"]:
                verdicts[workload].append(
                    f"seed {seed}: {outcome['failed']}/{outcome['attempted']} "
                    "failed"
                )
            for name, metric in outcome["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            print(f"  {workload} seed {seed}: " + ", ".join(
                f"{n}={outcome['metrics'][n]['value']:.4g}"
                for n in list(bounds)[:3]), file=sys.stderr, flush=True)

    summary: dict[str, dict] = {}
    steady = True
    for workload in workloads:
        print(f"\n{workload} ({len(args.seeds)} seeds, {seconds} s runs)")
        print(f"  {'metric':44} {'unit':6} {'median':>12} {'q1':>12} "
              f"{'q3':>12} {'spread':>7}")
        summary[workload] = {}
        for name in bounds:
            stats = summarise(values[workload][name])
            summary[workload][name] = dict(stats, unit=units[name])
            bound = bounds[name]
            flag = ""
            if bound is not None and len(args.seeds) > 1:
                ok = stats["spread"] < bound / 3
                steady &= ok or name == "setup_s"
                flag = f" (bound {bound}{'' if ok else ', NOT below bound/3'})"
            print(f"  {name:44} {units[name]:6} {stats['median']:12.6g} "
                  f"{stats['q1']:12.6g} {stats['q3']:12.6g} "
                  f"{stats['spread']:7.4f}{flag}")
        for verdict in verdicts[workload]:
            print(f"  INCORRECT {verdict}")

    if args.baseline is not None:
        args.baseline.write_text(json.dumps({
            "host": {
                "machine": platform.machine(),
                "cpus": os.cpu_count(),
                "python": platform.python_version(),
            },
            "seeds": args.seeds,
            "run_seconds": seconds,
            "workloads": summary,
        }, indent=1) + "\n")
    correct = not any(verdicts.values())
    return 0 if correct and steady else 1


if __name__ == "__main__":
    sys.exit(main())
