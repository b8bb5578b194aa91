"""Higher-level timing properties of the model.

These check *monotonicity* and *resource* relationships a credible
cycle-level model must respect, rather than exact numbers.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.harness.runner import ExperimentScale, make_trace
from repro.pipeline import MachineConfig, Processor
from repro.validate import generate_ops, ops_strategy, ops_to_trace
from tests.conftest import build_trace

TINY = ExperimentScale("tiny", num_instructions=4_000, warmup=1_500)


@pytest.fixture(scope="module")
def gzip_trace():
    return make_trace("gzip", TINY)


class TestLatencyMonotonicity:
    def test_slower_memory_never_speeds_up(self, gzip_trace):
        fast = MachineConfig.nosq()
        slow = MachineConfig.nosq()
        slow.hierarchy = dataclasses.replace(
            slow.hierarchy, memory_latency=400
        )
        fast_stats = Processor(fast).run(gzip_trace)
        slow_stats = Processor(slow).run(gzip_trace)
        assert slow_stats.cycles >= fast_stats.cycles

    def test_smaller_l1_never_speeds_up(self, gzip_trace):
        big = MachineConfig.conventional(perfect_scheduling=True)
        small = MachineConfig.conventional(perfect_scheduling=True)
        small.hierarchy = dataclasses.replace(small.hierarchy, l1_size=8 * 1024)
        big_stats = Processor(big).run(gzip_trace)
        small_stats = Processor(small).run(gzip_trace)
        assert small_stats.cycles >= big_stats.cycles * 0.999

    def test_narrower_machine_never_speeds_up(self, gzip_trace):
        wide = MachineConfig.nosq()
        narrow = dataclasses.replace(MachineConfig.nosq(), width=2,
                                     commit_width=2)
        wide_stats = Processor(wide).run(gzip_trace)
        narrow_stats = Processor(narrow).run(gzip_trace)
        assert narrow_stats.cycles >= wide_stats.cycles

    def test_longer_exec_delay_never_speeds_up(self, gzip_trace):
        short = MachineConfig.nosq()
        long = dataclasses.replace(MachineConfig.nosq(), exec_delay=6)
        short_stats = Processor(short).run(gzip_trace)
        long_stats = Processor(long).run(gzip_trace)
        assert long_stats.cycles >= short_stats.cycles


class TestResourceRelationships:
    def test_tiny_rob_throttles(self, gzip_trace):
        big = MachineConfig.nosq()
        small = dataclasses.replace(MachineConfig.nosq(), rob_size=16)
        assert (
            Processor(small).run(gzip_trace).cycles
            > Processor(big).run(gzip_trace).cycles
        )

    def test_tiny_iq_throttles(self, gzip_trace):
        big = MachineConfig.nosq()
        small = dataclasses.replace(MachineConfig.nosq(), iq_size=4)
        assert (
            Processor(small).run(gzip_trace).cycles
            >= Processor(big).run(gzip_trace).cycles
        )

    def test_single_issue_bounds_ipc(self):
        trace = build_trace([("alu", 8)] * 800)
        config = dataclasses.replace(MachineConfig.nosq(), width=1,
                                     commit_width=1)
        stats = Processor(config).run(trace)
        assert stats.ipc <= 1.0

    def test_load_port_bounds_load_throughput(self):
        # A pure stream of independent loads cannot exceed 1 IPC (one load
        # port), even on a 4-wide machine.
        trace = build_trace(
            [("ld", 0x8000 + 8 * (i % 64), 8) for i in range(600)]
        )
        stats = Processor(MachineConfig.nosq()).run(trace)
        assert stats.ipc <= 1.02


class TestBypassingLatencyBenefit:
    def test_bypass_shortens_def_use_chains(self):
        """A dependent DEF->store->load->USE chain is faster under NoSQ
        (register short-circuit) than under the baseline (cache access)."""
        specs = []
        for i in range(200):
            addr = 0x8000 + 8 * (i % 32)
            # Chain: each DEF consumes the previous USE.
            specs += [
                ("alu", 8, 9, {"pc": 0x2000}),
                ("st", addr, 8, 8, {"pc": 0x2004}),
                ("ld", addr, 8, {"pc": 0x2008}),
                ("alu", 9, 16, {"pc": 0x200C}),
            ]
        trace = build_trace(specs)
        warmup = len(trace) // 2
        nosq = Processor(MachineConfig.nosq()).run(trace, warmup=warmup)
        baseline = Processor(
            MachineConfig.conventional(perfect_scheduling=True)
        ).run(trace, warmup=warmup)
        assert nosq.cycles < baseline.cycles


class TestSeedStability:
    @given(st.integers(min_value=0, max_value=5))
    @settings(max_examples=6, deadline=None)
    def test_different_seeds_same_ballpark(self, seed):
        """Different workload seeds move IPC only modestly: the profiles,
        not the RNG, determine behaviour."""
        trace = make_trace("applu", TINY, seed=seed)
        stats = Processor(MachineConfig.nosq()).run(trace, warmup=TINY.warmup)
        assert 0.4 < stats.ipc < 2.5


class TestFuzzedTraceTiming:
    """Timing sanity over the differential fuzzer's trace distribution
    (the same strategies ``repro validate fuzz`` samples from)."""

    @given(ops_strategy(min_size=10, max_size=100))
    @settings(max_examples=20, deadline=None)
    def test_reexecution_is_bounded_and_uses_backend_port(self, ops):
        """Verification re-executes a committed load at most once, and
        every re-execution is exactly one back-end data-cache read."""
        trace = ops_to_trace(ops)
        stats = Processor(MachineConfig.nosq()).run(trace)
        assert stats.reexecuted_loads <= stats.loads
        assert stats.backend_dcache_reads == stats.reexecuted_loads

    @given(ops_strategy(min_size=10, max_size=100))
    @settings(max_examples=20, deadline=None)
    def test_fuzzed_traces_complete_within_width_bound(self, ops):
        trace = ops_to_trace(ops)
        stats = Processor(MachineConfig.nosq()).run(trace)
        assert stats.instructions == len(trace)
        assert stats.cycles >= len(trace) / 4

    @given(st.integers(min_value=0, max_value=31))
    @settings(max_examples=8, deadline=None)
    def test_generator_is_a_pure_function_of_its_seed(self, seed):
        """The fuzz RNG-seed <-> trace reproducibility guarantee."""
        assert generate_ops(seed, 80) == generate_ops(seed, 80)
