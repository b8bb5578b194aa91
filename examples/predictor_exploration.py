#!/usr/bin/env python3
"""Explore the bypassing predictor's design space (Figure 5 in miniature).

Sweeps predictor capacity and path-history length on a couple of
benchmarks with contrasting behaviour -- one with long path-dependent
communication signatures (eon.k) and one without (gzip) -- and prints both
the prediction accuracy and the resulting performance.

Run:  python examples/predictor_exploration.py
"""

from repro.api import sweep
from repro.harness.runner import ExperimentScale

#: 30,000 instructions, warming up on the first half.
SCALE = ExperimentScale("explore", 30_000, 15_000)
BASELINE = "conventional-perfect"
#: Predictor label -> the NoSQ spec with that predictor.
PREDICTORS = {
    label: f"nosq?bypass.entries_per_table={entries},"
           f"bypass.history_bits={history}"
           + (",bypass.unbounded=true" if unbounded else "")
    for label, entries, history, unbounded in [
        ("512 entries, 8 bits", 256, 8, False),
        ("2K entries, 8 bits", 1024, 8, False),
        ("2K entries, 4 bits", 1024, 4, False),
        ("2K entries, 12 bits", 1024, 12, False),
        ("unbounded, 12 bits", 1024, 12, True),
    ]
}


def main() -> None:
    benchmarks = ["gzip", "eon.k"]
    swept = sweep([BASELINE, *PREDICTORS.values()], benchmarks, scale=SCALE)
    for benchmark in benchmarks:
        baseline = swept.stats(benchmark, BASELINE)
        print(f"== {benchmark} (baseline IPC {baseline.ipc:.2f})")
        print(f"   {'predictor':>22s} {'rel.time':>9s} {'mispred/10k':>12s} {'delayed':>8s}")
        for label, spec in PREDICTORS.items():
            stats = swept.stats(benchmark, spec)
            rel = stats.cycles / baseline.cycles
            print(
                f"   {label:>22s} {rel:9.3f} "
                f"{stats.mispredicts_per_10k_loads:12.1f} "
                f"{stats.pct_loads_delayed:7.1f}%"
            )
        print()


if __name__ == "__main__":
    main()
