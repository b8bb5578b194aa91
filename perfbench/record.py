#!/usr/bin/env python3
"""Record the expected output digests the benchmark's gate checks.

Usage, from the root of a checkout::

    python3 perfbench/record.py --seeds 0-12,17
    python3 perfbench/record.py --seeds 17 --workloads campaign-rerun

For each workload and seed this prepares the inputs, runs one iteration,
checks it against the workload's independent cross-check, and stores its
digests in ``expected.json`` (other workloads and seeds are kept).  Run it
again only when a change is meant to alter simulated results.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from spread import parse_seeds  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

EXPECTED = HERE / "expected.json"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, type=parse_seeds)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args(argv)

    table = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}
    for name in args.workloads.split(","):
        entry = table.setdefault(name, {"labels": [], "seeds": {}})
        for seed in args.seeds:
            work = ROOT / ".perfbench" / f"record-{name}-{seed}"
            workload = WORKLOADS[name](work, seed)
            try:
                workload.prepare()
                iteration = workload.run_once()
                problems = iteration.problems + workload.cross_check(iteration)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if problems:
                print(f"{name} seed {seed}: " + "; ".join(problems),
                      file=sys.stderr)
                return 1
            # Pool workers finish in any order; store outputs by label.
            outputs = sorted(iteration.outputs.items())
            labels = [label for label, _ in outputs]
            if entry["labels"] and entry["labels"] != labels:
                print(f"{name} seed {seed}: outputs differ in labels from the "
                      "recorded ones", file=sys.stderr)
                return 1
            entry["labels"] = labels
            entry["seeds"][str(seed)] = [digest for _, digest in outputs]
            print(f"{name} seed {seed}: {len(labels)} digests", flush=True)
        entry["seeds"] = dict(sorted(entry["seeds"].items(),
                                     key=lambda item: int(item[0])))
    EXPECTED.write_text(_format(table))
    return 0


def _format(table: dict) -> str:
    """JSON with one line per workload's labels and per seed."""
    blocks = []
    for name, entry in table.items():
        seeds = ",\n".join(
            f"   {json.dumps(seed)}: {json.dumps(digests)}"
            for seed, digests in entry["seeds"].items()
        )
        blocks.append(
            f" {json.dumps(name)}: {{\n"
            f"  \"labels\": {json.dumps(entry['labels'])},\n"
            f"  \"seeds\": {{\n{seeds}\n  }}\n }}"
        )
    return "{\n" + ",\n".join(blocks) + "\n}\n"


if __name__ == "__main__":
    sys.exit(main())
