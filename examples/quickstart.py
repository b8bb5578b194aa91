#!/usr/bin/env python3
"""Quickstart: simulate one benchmark on the conventional baseline and NoSQ.

Uses the public façade (:mod:`repro.api`): configurations are addressed
by spec string — presets (``conventional``, ``nosq``, ...) with
optional dotted-path overrides (``nosq?backend.rob_size=256``) — and
``simulate()`` resolves the benchmark through the trace-source layer, so
profiles, ``zoo.*`` families and ``trace:``/``extern:`` files all work.

Run:  python examples/quickstart.py [benchmark] [instructions]
      python examples/quickstart.py zoo.pchase 8000
"""

import sys

from repro.api import simulate

#: Spec strings for the historical quickstart sweep; the first is the
#: relative-time baseline.  Try adding "nosq?backend.rob_size=256".
CONFIG_SPECS = [
    "conventional-perfect",
    "conventional",
    "nosq-nodelay",
    "nosq",
]


def main() -> None:
    benchmark = sys.argv[1] if len(sys.argv) > 1 else "gzip"
    length = int(sys.argv[2]) if len(sys.argv) > 2 else 30_000

    results = {
        spec: simulate(spec, benchmark, scale=length) for spec in CONFIG_SPECS
    }
    first = next(iter(results.values()))
    print(f"benchmark={benchmark}, {first.scale.num_instructions} "
          f"instructions ({first.scale.warmup} warmup)\n")

    baseline = first.stats
    print(f"{'configuration':16s} {'IPC':>6s} {'rel.time':>9s} "
          f"{'bypassed':>9s} {'delayed':>8s} {'reexec':>7s} {'flushes':>8s}")
    for result in results.values():
        stats = result.stats
        rel = stats.cycles / baseline.cycles
        print(
            f"{result.config_name:16s} {stats.ipc:6.2f} {rel:9.3f} "
            f"{stats.pct_loads_bypassed:8.1f}% {stats.pct_loads_delayed:7.1f}% "
            f"{stats.reexecuted_loads:7d} {stats.flushes:8d}"
        )

    nosq = results["nosq"].stats
    sq = results["conventional"].stats
    speedup = 100.0 * (sq.cycles - nosq.cycles) / sq.cycles
    print(
        f"\nNoSQ (with delay) vs associative store queue: "
        f"{speedup:+.1f}% execution time"
    )
    print(
        f"NoSQ bypassing mispredictions: "
        f"{nosq.mispredicts_per_10k_loads:.1f} per 10k loads"
    )
    reads_saved = 100.0 * (
        1 - nosq.total_dcache_reads / max(1, sq.total_dcache_reads)
    )
    print(f"Data-cache reads saved by bypassing: {reads_saved:.1f}%")


if __name__ == "__main__":
    main()
