"""Timing harness: end-to-end simulation plus isolated hot-path phases.

Each *phase* times one slice of the simulator with a deterministic,
seed-fixed workload and reports ``{name, wall_s, work, unit, rate}``.
Phase names are a stable, ordered contract (:data:`PHASE_NAMES`) so that
baseline/candidate comparisons line up across revisions.

The end-to-end measurement mirrors the smoke campaign: every benchmark in
:data:`BENCH_BENCHMARKS` is generated once (that generation is itself the
``trace_generation`` phase, matching the campaign engine's one-trace-per-
benchmark sharing) and then simulated on all five standard configurations.
Wall times take the best of ``repeat`` rounds, which filters scheduler and
frequency-scaling noise; rates are therefore slight *over*-estimates of a
single cold run but stable enough to regression-gate.
"""

from __future__ import annotations

import json
import platform
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.core.ssbf import TaggedSSBF
from repro.core.svw import SVWFilter
from repro.harness.report import render_table
from repro.api.configs import resolve_config, standard_configs
from repro.api.facade import NAMED_SCALES
from repro.harness.runner import ExperimentScale, make_trace
from repro.isa.opcodes import OpClass
from repro.isa.trace import DynInst, annotate_trace
from repro.memory.hierarchy import MemoryHierarchy
from repro.pipeline.processor import Processor
from repro.predictors.store_sets import StoreSets

#: Report layout version; bump on incompatible schema changes.
BENCH_SCHEMA = 1

#: Benchmarks timed by the end-to-end phase: a spread of communication
#: rates and memory behaviour (adpcm.d: low-comm kernel, gzip: integer
#: compression, applu: FP stencil, mcf: memory-bound, vortex: high-comm).
BENCH_BENCHMARKS = ("adpcm.d", "gzip", "applu", "mcf", "vortex")

#: Ordered, stable phase names (the comparison contract).  New phases
#: append (compare skips metrics a report does not have).
PHASE_NAMES = (
    "trace_generation",
    "dispatch_issue",
    "svw_ssbf_verify",
    "store_sets",
    "memory_hierarchy",
    "trace_io",
)

def _git_rev() -> str:
    """Short revision of the working tree, or ``local`` outside git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "local"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "local"


def _peak_rss_kb() -> int:
    """Peak resident set size of this process in KiB (0 if unavailable)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB; macOS reports bytes.
    if sys.platform == "darwin":  # pragma: no cover
        usage //= 1024
    return int(usage)


def _best_of(repeat: int, fn: Callable[[], int]) -> tuple[float, int]:
    """Run *fn* ``repeat`` times; return (best wall seconds, work units).

    *fn* returns the number of work units it performed (constant across
    rounds); the best (minimum) wall time is kept.
    """
    best = float("inf")
    work = 0
    for _ in range(max(1, repeat)):
        started = time.perf_counter()
        work = fn()
        elapsed = time.perf_counter() - started
        best = min(best, elapsed)
    return best, work


def _phase_record(name: str, wall_s: float, work: int, unit: str) -> dict:
    return {
        "name": name,
        "wall_s": wall_s,
        "work": work,
        "unit": unit,
        "rate": work / wall_s if wall_s > 0 else 0.0,
    }


# --------------------------------------------------------------------- #
# Isolated hot-path phases
# --------------------------------------------------------------------- #


def _dispatch_issue_trace(num: int) -> list[DynInst]:
    """A load/store-free ALU + branch stream isolating the dispatch/issue
    and commit machinery (no memory hierarchy, no verification)."""
    trace = []
    for i in range(num):
        kind = i % 8
        if kind == 6:
            trace.append(DynInst(
                seq=i, pc=0x1000 + 4 * (i % 512), op=OpClass.BRANCH,
                srcs=(1 + i % 4,), taken=(i % 3 == 0),
                target=0x1000 + 4 * ((i + 7) % 512), lat=1,
            ))
        elif kind == 7:
            trace.append(DynInst(
                seq=i, pc=0x1000 + 4 * (i % 512), op=OpClass.COMPLEX,
                srcs=(1 + i % 4, 1 + (i + 1) % 4), dst=8 + i % 8, lat=4,
            ))
        else:
            trace.append(DynInst(
                seq=i, pc=0x1000 + 4 * (i % 512), op=OpClass.ALU,
                srcs=(1 + i % 4, 8 + (i + 3) % 8), dst=8 + i % 8, lat=1,
            ))
    return annotate_trace(trace)


def _bench_dispatch_issue(iterations: int) -> int:
    trace = _dispatch_issue_trace(iterations)
    Processor(resolve_config("conventional")).run(trace)
    return iterations


def _bench_svw_ssbf(iterations: int) -> int:
    """Store-commit updates interleaved with both SVW verification tests
    over a deterministic address stream."""
    ssbf = TaggedSSBF(entries=128, assoc=4)
    svw = SVWFilter(ssbf)
    ssn = 0
    for i in range(iterations):
        addr = ((i * 2654435761) & 0xFFFF) & ~7
        if i % 2 == 0:
            ssn += 1
            svw.store_commit(addr, 8 if i % 4 == 0 else 4, ssn)
        elif i % 4 == 1:
            svw.test_nonbypassing(addr, 4, max(0, ssn - i % 8))
        else:
            svw.test_bypassing(addr, 4, max(1, ssn - i % 3), i % 4)
    return iterations


def _bench_store_sets(iterations: int) -> int:
    sets = StoreSets()
    handles = [object() for _ in range(32)]
    for i in range(iterations):
        pc = 0x2000 + 4 * (i % 997)
        if i % 3 == 0:
            sets.store_renamed(pc, handles[i % 32])
        elif i % 3 == 1:
            sets.load_dependence(pc)
        else:
            sets.store_retired(pc, handles[i % 32])
        if i % 127 == 0:
            sets.train_violation(pc, pc ^ 0x40)
    return iterations


def _bench_memory_hierarchy(iterations: int) -> int:
    hierarchy = MemoryHierarchy()
    for i in range(iterations):
        # Mixed stride + pseudo-random pattern: L1 hits, L2 hits and misses.
        addr = ((i * 64) ^ ((i * 2654435761) & 0x7FFC0)) & 0xFFFFF
        if i % 4 == 0:
            hierarchy.write(addr)
        else:
            hierarchy.read(addr)
    return iterations


#: Work per isolated phase at each named scale (ops / instructions), sized
#: so each phase runs long enough (~100ms at smoke) for stable rates.
_PHASE_ITERATIONS = {
    "smoke": {
        "dispatch_issue": 20_000,
        "svw_ssbf_verify": 60_000,
        "store_sets": 200_000,
        "memory_hierarchy": 80_000,
    },
    "default": {
        "dispatch_issue": 60_000,
        "svw_ssbf_verify": 180_000,
        "store_sets": 600_000,
        "memory_hierarchy": 240_000,
    },
    "full": {
        "dispatch_issue": 120_000,
        "svw_ssbf_verify": 360_000,
        "store_sets": 1_200_000,
        "memory_hierarchy": 480_000,
    },
}


# --------------------------------------------------------------------- #
# Top level
# --------------------------------------------------------------------- #


def run_bench(
    scale: str = "smoke",
    benchmarks: Sequence[str] = BENCH_BENCHMARKS,
    seed: int = 17,
    repeat: int = 3,
    progress: Callable[[str], None] | None = None,
) -> dict[str, Any]:
    """Time the simulator and its hot paths; return the report dict.

    ``scale`` is a named experiment scale (``smoke``/``default``/``full``).
    The end-to-end number is *simulated* instructions per wall second over
    ``benchmarks`` x the five standard configurations, one shared annotated
    trace per benchmark (the campaign engine's sharing unit).
    """
    if scale not in NAMED_SCALES:
        raise ValueError(
            f"unknown scale {scale!r}; expected one of "
            f"{sorted(NAMED_SCALES)}"
        )
    experiment_scale: ExperimentScale = NAMED_SCALES[scale]
    phase_iterations = _PHASE_ITERATIONS[scale]

    def say(message: str) -> None:
        if progress is not None:
            progress(message)

    # Phase 1: trace generation (also produces the end-to-end inputs).
    say(f"trace_generation: {len(benchmarks)} benchmarks "
        f"x {experiment_scale.num_instructions} instructions")
    traces: dict[str, list[DynInst]] = {}
    started = time.perf_counter()
    for name in benchmarks:
        traces[name] = make_trace(name, experiment_scale, seed)
    gen_wall = time.perf_counter() - started
    gen_work = sum(len(t) for t in traces.values())
    phases = [_phase_record("trace_generation", gen_wall, gen_work, "inst")]

    # Isolated hot-path phases.
    for name, fn in (
        ("dispatch_issue", _bench_dispatch_issue),
        ("svw_ssbf_verify", _bench_svw_ssbf),
        ("store_sets", _bench_store_sets),
        ("memory_hierarchy", _bench_memory_hierarchy),
    ):
        iterations = phase_iterations[name]
        say(f"{name}: {iterations} ops x {repeat} rounds")
        wall, work = _best_of(repeat, lambda fn=fn: fn(iterations))
        unit = "inst" if name == "dispatch_issue" else "ops"
        phases.append(_phase_record(name, wall, work, unit))

    # Trace I/O: a v2 binary save/load round trip of the generated
    # traces (the repro.traces serialization hot path).
    import tempfile

    from repro.traces.binformat import load_trace as load_binary
    from repro.traces.binformat import write_trace

    say(f"trace_io: {len(traces)} traces x {repeat} rounds")

    def roundtrip_all() -> int:
        total = 0
        with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
            for name, trace in traces.items():
                target = Path(tmp) / f"{name}.bt"
                write_trace(trace, target)
                total += len(load_binary(target)) + len(trace)
        return total

    wall, work = _best_of(repeat, roundtrip_all)
    phases.append(_phase_record("trace_io", wall, work, "inst"))

    # End to end: the smoke-campaign cross product on shared traces.
    configs = standard_configs()
    say(f"end_to_end: {len(benchmarks)} benchmarks x {len(configs)} "
        f"configs x {repeat} rounds")

    def simulate_all() -> int:
        total = 0
        for name in benchmarks:
            trace = traces[name]
            for config in configs:
                Processor(config).run(
                    trace, warmup=experiment_scale.warmup
                )
                total += len(trace)
        return total

    wall, instructions = _best_of(repeat, simulate_all)

    return {
        "schema": BENCH_SCHEMA,
        "rev": _git_rev(),
        "created": datetime.now(timezone.utc).isoformat(),
        "scale": scale,
        "seed": seed,
        "repeat": repeat,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "peak_rss_kb": _peak_rss_kb(),
        "end_to_end": {
            "wall_s": wall,
            "instructions": instructions,
            "inst_per_sec": instructions / wall if wall > 0 else 0.0,
            "benchmarks": list(benchmarks),
            "configs": [config.name for config in configs],
        },
        "phases": phases,
    }


def write_report(report: dict[str, Any], path: str | Path) -> Path:
    """Serialize *report* to *path* as stable, sorted JSON."""
    path = Path(path)
    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return path


def render_report(report: dict[str, Any]) -> str:
    """Human-readable table for one report."""
    end = report["end_to_end"]
    rows = [[
        "end_to_end (sim)", f"{end['wall_s']:.3f}", str(end["instructions"]),
        "inst", f"{end['inst_per_sec']:,.0f}",
    ]]
    for phase in report["phases"]:
        rows.append([
            phase["name"], f"{phase['wall_s']:.3f}", str(phase["work"]),
            phase["unit"], f"{phase['rate']:,.0f}",
        ])
    title = (
        f"repro bench @ {report['rev']} ({report['scale']} scale, "
        f"repeat {report['repeat']}, peak RSS {report['peak_rss_kb']} KiB)"
    )
    return render_table(
        ["phase", "wall s", "work", "unit", "rate/s"], rows, title=title
    )
