#!/usr/bin/env python3
"""Explore the bypassing predictor's design space (Figure 5 in miniature).

Sweeps predictor capacity and path-history length on a couple of
benchmarks with contrasting behaviour -- one with long path-dependent
communication signatures (eon.k) and one without (gzip) -- and prints both
the prediction accuracy and the resulting performance.

Run:  python examples/predictor_exploration.py
"""

from dataclasses import replace

from repro import MachineConfig, generate_trace, simulate
from repro.pipeline.config import BypassPredictorConfig


def sweep(benchmark: str, length: int = 30_000) -> None:
    trace = generate_trace(benchmark, num_instructions=length)
    warmup = length // 2
    baseline = simulate(
        MachineConfig.conventional(perfect_scheduling=True), trace, warmup=warmup
    )

    print(f"== {benchmark} (baseline IPC {baseline.ipc:.2f})")
    print(f"   {'predictor':>22s} {'rel.time':>9s} {'mispred/10k':>12s} {'delayed':>8s}")
    for label, entries, history, unbounded in [
        ("512 entries, 8 bits", 256, 8, False),
        ("2K entries, 8 bits", 1024, 8, False),
        ("2K entries, 4 bits", 1024, 4, False),
        ("2K entries, 12 bits", 1024, 12, False),
        ("unbounded, 12 bits", 1024, 12, True),
    ]:
        predictor = BypassPredictorConfig(
            entries_per_table=entries, history_bits=history, unbounded=unbounded
        )
        config = replace(
            MachineConfig.nosq(predictor=predictor), name=f"nosq-{label}"
        )
        stats = simulate(config, trace, warmup=warmup)
        rel = stats.cycles / baseline.cycles
        print(
            f"   {label:>22s} {rel:9.3f} "
            f"{stats.mispredicts_per_10k_loads:12.1f} "
            f"{stats.pct_loads_delayed:7.1f}%"
        )
    print()


def main() -> None:
    for benchmark in ("gzip", "eon.k"):
        sweep(benchmark)


if __name__ == "__main__":
    main()
