#!/usr/bin/env python3
"""Window scaling: NoSQ on 128- vs 256-entry windows (Figure 3).

A larger window raises in-flight store-load communication rates -- more
opportunity for speculative memory bypassing -- but also exposes harder
communication patterns (longer distances, longer path signatures) to a
bypassing predictor that is deliberately *not* enlarged.  The paper finds
realistic NoSQ's average improvement halves at 256 entries while idealized
SMB improves.

The sweep runs through the campaign engine via :func:`repro.api.sweep`
(see README.md "Running campaigns"): each benchmark's trace is generated
once and shared across its configurations, the benchmarks are sharded over
worker processes, and results are memoized in a content-addressed cache so
a re-run completes from cache in seconds.

Run:  python examples/window_scaling.py [jobs]
"""

import sys

from repro.api import sweep

BENCHMARKS = ["g721.e", "mesa.o", "gzip", "vortex", "applu"]
#: Baseline first; every spec takes the sweep's window.
CONFIGS = "conventional-perfect,conventional,nosq,nosq-perfect"


def main() -> None:
    jobs = int(sys.argv[1]) if len(sys.argv) > 1 else 2
    print(f"{'benchmark':10s} {'window':>7s} {'assoc SQ':>9s} "
          f"{'NoSQ delay':>11s} {'perfect SMB':>12s}")
    for window in (128, 256):
        suffix = "-w256" if window == 256 else ""
        results = sweep(
            CONFIGS, BENCHMARKS, scale="default", jobs=jobs,
            cache="results/cache", window=window,
        ).results()
        baseline_name = f"sq-perfect{suffix}"
        for benchmark in BENCHMARKS:
            result = results[benchmark]
            rel = {
                name.replace("-w256", ""): result.relative_time(
                    name, baseline_name
                )
                for name in result.runs
            }
            print(
                f"{benchmark:10s} {window:7d} {rel['sq-storesets']:9.3f} "
                f"{rel['nosq-delay']:11.3f} {rel['nosq-perfect']:12.3f}"
            )
    print("\nLower is better; times are relative to the associative-SQ +"
          "\nperfect-scheduling baseline at the same window size.")


if __name__ == "__main__":
    main()
