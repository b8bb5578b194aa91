"""Dispatch stalls that start before their end is known.

A mispredicted branch and a wrong opportunistic-SMB bypass each stop
dispatch until the instruction resolves.  When the instruction is still
waiting on an unscheduled producer at dispatch, its resolve cycle is not
known yet: the stall starts from a pessimistic bound and is raised again
once the instruction schedules.  No other tier-1 fixture pins that path,
so the two traces below reach it and pin every ``RunStats`` counter,
recorded from the simulator as it stood before the stall was folded into
one helper:

* ``zoo.fsm`` on ``nosq``: branches fed by delayed loads;
* a ``TraceBuilder`` loop on ``conventional-smb``: a load whose address
  comes from a load parked behind a partially overlapping store, so the
  SMB short-circuit is applied while the load is unscheduled, and the
  last iteration's prediction is wrong.
"""

import pytest

from repro.api import resolve_config
from repro.isa.trace import TraceBuilder
from repro.pipeline.processor import Processor
from repro.workloads.zoo import generate_zoo_trace


class _DeferredCount(Processor):
    """Counts the stalls that start while their instruction is
    unscheduled.  Overrides delegate first, so timing is untouched."""

    def __init__(self, config):
        super().__init__(config)
        self.deferred_branches = 0
        self.deferred_smb = 0

    def _handle_branch(self, entry, cycle):
        unresolved = entry.complete_cycle < 0
        before = self.stats.branch_mispredicts
        stop = super()._handle_branch(entry, cycle)
        if unresolved and self.stats.branch_mispredicts > before:
            self.deferred_branches += 1
        return stop

    def _apply_opportunistic_smb(self, entry):
        unresolved = entry.complete_cycle < 0
        before = self.stats.flush_wrong_store
        super()._apply_opportunistic_smb(entry)
        if unresolved and self.stats.flush_wrong_store > before:
            self.deferred_smb += 1


def _smb_loop(iterations: int = 12, fill: int = 200):
    """Each iteration stores a value, parks a load behind a partially
    overlapping store, and loads the value back through the parked load's
    result.  The ALU fill lets each iteration commit (and train the
    bypassing predictor) before the next one dispatches.  The last
    iteration loads from an address no store wrote."""
    b = TraceBuilder()
    for i in range(iterations):
        value_addr = 0x20000 + 0x100 * i
        slot = 0x10000 + 0x100 * i
        b.store(0x100, value_addr)
        b.store(0x104, slot)
        parked = b.load(0x108, slot + 4)  # 8 bytes, half of them the store's
        last = i == iterations - 1
        b.load(0x10C, 0x30000 if last else value_addr, base=parked.dst)
        for k in range(fill):
            b.alu(0x200 + 4 * (k % 8))
    return b.finish()


def _counters(stats) -> dict:
    return {
        k: v for k, v in vars(stats).items()
        if isinstance(v, (int, float)) and k != "config_name"
    }


_ZERO = dict.fromkeys([
    "backend_dcache_reads", "branch_mispredicts", "branches", "btb_bubbles",
    "bypass_identity", "bypass_injected", "bypassed_loads", "cycles",
    "delayed_loads", "dispatch_stall_cycles", "flush_conv_violation",
    "flush_should_have_bypassed", "flush_should_not_have_bypassed",
    "flush_wrong_shift", "flush_wrong_store", "flushes", "instructions",
    "iq_dispatches", "loads", "nonbypassed_loads", "ooo_dcache_reads",
    "predictor_lookups", "predictor_path_hits", "predictor_trainings",
    "reexecuted_loads", "sq_full_stalls", "ssn_wraps", "stores",
], 0)

CASES = {
    "fsm-nosq": (
        "nosq", lambda: generate_zoo_trace("fsm", 1000, 17), (22, 0),
        dict(
            _ZERO, backend_dcache_reads=23, branch_mispredicts=140,
            branches=289, btb_bubbles=12, bypass_injected=72,
            bypassed_loads=72, cycles=2837, delayed_loads=54,
            flush_should_have_bypassed=16, flush_wrong_store=7, flushes=23,
            instructions=1003, iq_dispatches=1137, loads=289,
            nonbypassed_loads=163, ooo_dcache_reads=273,
            predictor_lookups=365, predictor_path_hits=38,
            predictor_trainings=23, reexecuted_loads=23, stores=136,
        ),
    ),
    "smb-loop": (
        "conventional-smb", _smb_loop, (0, 1),
        dict(
            _ZERO, bypass_identity=11, bypassed_loads=11, cycles=994,
            dispatch_stall_cycles=130, flush_wrong_store=1, flushes=1,
            instructions=2448, iq_dispatches=2448, loads=24,
            nonbypassed_loads=24, ooo_dcache_reads=24,
            predictor_trainings=14, stores=24,
        ),
    ),
}


@pytest.mark.parametrize("case", list(CASES))
def test_deferred_stall_matches_recorded_stats(case):
    spec, make_trace, deferred, expected = CASES[case]
    processor = _DeferredCount(resolve_config(spec))
    got = _counters(processor.run(make_trace()))
    assert (processor.deferred_branches, processor.deferred_smb) == deferred
    mismatched = {
        k: (expected.get(k), got.get(k))
        for k in set(expected) | set(got)
        if expected.get(k) != got.get(k)
    }
    assert not mismatched, f"{case}: {mismatched}"

