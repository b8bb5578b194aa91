"""Cross-configuration integration tests on generated workloads."""

import pytest

from repro.api import standard_configs
from repro.harness.runner import ExperimentScale, make_trace
from repro.pipeline import MachineConfig, Processor, simulate

TINY = ExperimentScale("tiny", num_instructions=5_000, warmup=2_000)


@pytest.fixture(scope="module")
def gzip_trace():
    return make_trace("gzip", TINY)


class TestAllConfigurations:
    @pytest.mark.parametrize(
        "config", standard_configs(), ids=lambda c: c.name
    )
    def test_runs_to_completion(self, gzip_trace, config):
        import dataclasses
        stats = simulate(dataclasses.replace(config), gzip_trace,
                         warmup=TINY.warmup)
        assert stats.instructions == len(gzip_trace) - TINY.warmup
        assert 0.1 < stats.ipc <= 4.0

    def test_perfect_configs_never_flush(self, gzip_trace):
        for config in (
            MachineConfig.conventional(perfect_scheduling=True),
            MachineConfig.nosq(perfect=True),
        ):
            stats = simulate(config, gzip_trace)
            assert stats.flushes == 0, config.name

    def test_perfect_smb_near_or_above_real_nosq(self, gzip_trace):
        """Oracle bypassing is never *substantially* worse than the real
        predictor.  (It is not a strict bound: the oracle's idealized delay
        of multi-source loads can cost more than the real machine's cheap
        flush-and-retry on short traces.)"""
        perfect = simulate(MachineConfig.nosq(perfect=True), gzip_trace,
                           warmup=TINY.warmup)
        real = simulate(MachineConfig.nosq(), gzip_trace, warmup=TINY.warmup)
        assert perfect.cycles <= real.cycles * 1.08

    def test_nosq_reduces_cache_reads(self, gzip_trace):
        baseline = simulate(MachineConfig.conventional(), gzip_trace,
                            warmup=TINY.warmup)
        nosq = simulate(MachineConfig.nosq(), gzip_trace, warmup=TINY.warmup)
        assert nosq.total_dcache_reads < baseline.total_dcache_reads

    def test_256_window_configs_run(self, gzip_trace):
        for config in standard_configs(window=256)[:2] + [
            MachineConfig.nosq(window=256)
        ]:
            stats = simulate(config, gzip_trace, warmup=TINY.warmup)
            assert stats.instructions == len(gzip_trace) - TINY.warmup

    def test_bigger_window_does_not_hurt_perfect_baseline(self, gzip_trace):
        small = simulate(
            MachineConfig.conventional(perfect_scheduling=True),
            gzip_trace, warmup=TINY.warmup,
        )
        large = simulate(
            MachineConfig.conventional(window=256, perfect_scheduling=True),
            gzip_trace, warmup=TINY.warmup,
        )
        assert large.cycles <= small.cycles * 1.05


class TestStructureAccounting:
    def test_physical_registers_never_leak(self, gzip_trace):
        processor = Processor(MachineConfig.nosq())
        processor.run(gzip_trace)
        # Everything committed: all rename registers must be free again.
        assert processor.pregs.free == (
            processor.pregs.total - processor.pregs.arch_regs
        )

    def test_issue_queue_drains(self, gzip_trace):
        processor = Processor(MachineConfig.nosq())
        stats = processor.run(gzip_trace)
        assert processor.iq.occupancy(stats.cycles + 1000) == 0

    def test_store_queue_drains(self, gzip_trace):
        processor = Processor(MachineConfig.conventional())
        processor.run(gzip_trace)
        assert len(processor.sq) == 0

    def test_srq_drains(self, gzip_trace):
        processor = Processor(MachineConfig.nosq())
        processor.run(gzip_trace)
        assert len(processor.srq) == 0

    def test_ssn_counters_converge(self, gzip_trace):
        processor = Processor(MachineConfig.nosq())
        processor.run(gzip_trace)
        assert processor.ssn.in_flight == 0
