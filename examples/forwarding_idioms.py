#!/usr/bin/env python3
"""Run real mini-ISA programs through the timing model.

Each program exercises a store-load communication idiom from the paper:

* ``stack_spill``   -- call-heavy spill/reload: the canonical SMB case;
* ``struct_pack``   -- partial-word and multi-source field access;
* ``fp_convert``    -- sts/lds single-precision conversion bypassing;
* ``histogram``     -- data-dependent reuse distances;
* ``memcpy``        -- no in-window communication at all.

Every program is a trace source, ``prog.<name>``: resolving it assembles
the program and executes it functionally into an annotated trace.  The
script simulates the conventional baseline and NoSQ on each one (warming
up on the first half of the program, as ``repro run`` does) and reports
how NoSQ classified the loads.

Run:  python examples/forwarding_idioms.py
"""

from repro.api import simulate
from repro.workloads import programs


def main() -> None:
    for program in programs.all_programs():
        source = f"prog.{program.name}"
        baseline = simulate("conventional", source)
        result = simulate("nosq", source)
        stats, nosq = result.trace_stats, result.stats
        print(f"== {source}: {program.description}")
        print(
            f"   {stats.loads} loads, "
            f"{stats.pct_communicating:.0f}% communicating "
            f"({stats.pct_partial_word:.0f}% partial-word, "
            f"{stats.multi_source_loads} multi-source); "
            f"{nosq.instructions} instructions measured"
        )

        rel = nosq.cycles / max(1, baseline.cycles)
        print(
            f"   baseline IPC {baseline.ipc:.2f} | NoSQ IPC {nosq.ipc:.2f} "
            f"(relative time {rel:.3f})"
        )
        print(
            f"   NoSQ loads: {nosq.bypassed_loads} bypassed "
            f"({nosq.bypass_identity} pure rename, "
            f"{nosq.bypass_injected} injected shift&mask), "
            f"{nosq.delayed_loads} delayed, "
            f"{nosq.nonbypassed_loads} cache accesses"
        )
        print(
            f"   verification: {nosq.reexecuted_loads} re-executed, "
            f"{nosq.flushes} flushes, "
            f"{nosq.mispredicts_per_10k_loads:.1f} mispredicts/10k loads"
        )
        print()


if __name__ == "__main__":
    main()
