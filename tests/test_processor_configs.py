"""Cross-configuration integration tests on generated workloads."""

import pytest

from repro.api import resolve_config, standard_configs
from repro.harness.runner import ExperimentScale, make_trace
from repro.isa.instructions import NUM_ARCH_REGS
from repro.pipeline import MachineConfig, Processor
from repro.validate import run_validation
from repro.workloads import generate_trace

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
        stats = Processor(dataclasses.replace(config)).run(
            gzip_trace, warmup=TINY.warmup
        )
        assert stats.instructions == len(gzip_trace) - TINY.warmup
        assert 0.1 < stats.ipc <= 4.0

    def test_perfect_configs_never_flush(self, gzip_trace):
        for config in (
            MachineConfig.conventional(perfect_scheduling=True),
            MachineConfig.nosq(perfect=True),
        ):
            stats = Processor(config).run(gzip_trace)
            assert stats.flushes == 0, config.name

    def test_perfect_smb_near_or_above_real_nosq(self, gzip_trace):
        """Oracle bypassing is never *substantially* worse than the real
        predictor.  (It is not a strict bound: the oracle's idealized delay
        of multi-source loads can cost more than the real machine's cheap
        flush-and-retry on short traces.)"""
        perfect = Processor(MachineConfig.nosq(perfect=True)).run(
            gzip_trace, warmup=TINY.warmup
        )
        real = Processor(MachineConfig.nosq()).run(
            gzip_trace, warmup=TINY.warmup
        )
        assert perfect.cycles <= real.cycles * 1.08

    def test_nosq_reduces_cache_reads(self, gzip_trace):
        baseline = Processor(MachineConfig.conventional()).run(
            gzip_trace, warmup=TINY.warmup
        )
        nosq = Processor(MachineConfig.nosq()).run(
            gzip_trace, warmup=TINY.warmup
        )
        assert nosq.total_dcache_reads < baseline.total_dcache_reads

    def test_256_window_configs_run(self, gzip_trace):
        for config in standard_configs(window=256)[:2] + [
            MachineConfig.nosq(window=256)
        ]:
            stats = Processor(config).run(gzip_trace, warmup=TINY.warmup)
            assert stats.instructions == len(gzip_trace) - TINY.warmup

    def test_bigger_window_does_not_hurt_perfect_baseline(self, gzip_trace):
        small = Processor(
            MachineConfig.conventional(perfect_scheduling=True)
        ).run(gzip_trace, warmup=TINY.warmup)
        large = Processor(
            MachineConfig.conventional(window=256, perfect_scheduling=True)
        ).run(gzip_trace, warmup=TINY.warmup)
        assert large.cycles <= small.cycles * 1.05


def _assert_drained(processor):
    """Every rename register is free, the store queue and the SRQ are
    empty, and SSNcommit has caught up with SSNrename."""
    pregs = processor.pregs
    assert pregs._free == processor.config.phys_regs - NUM_ARCH_REGS
    assert not pregs._refcounts
    if processor.sq is not None:
        assert processor.sq._entries == []
    assert processor.srq._entries == {}
    assert processor.ssn.rename == processor.ssn.commit


class TestStructureAccounting:
    def test_physical_registers_never_leak(self, gzip_trace):
        processor = Processor(MachineConfig.nosq())
        processor.run(gzip_trace)
        # Everything committed: all rename registers must be free again.
        assert processor.pregs._free == (
            processor.config.phys_regs - NUM_ARCH_REGS
        )

    def test_issue_queue_drains(self, gzip_trace):
        processor = Processor(MachineConfig.nosq())
        stats = processor.run(gzip_trace)
        iq = processor.iq
        assert iq._unscheduled == 0
        assert all(issue <= stats.cycles for issue in iq._scheduled)

    def test_store_queue_drains(self, gzip_trace):
        processor = Processor(MachineConfig.conventional())
        processor.run(gzip_trace)
        assert processor.sq._entries == []

    def test_srq_drains(self, gzip_trace):
        processor = Processor(MachineConfig.nosq())
        processor.run(gzip_trace)
        assert processor.srq._entries == {}

    def test_ssn_counters_converge(self, gzip_trace):
        processor = Processor(MachineConfig.nosq())
        processor.run(gzip_trace)
        assert processor.ssn.rename - processor.ssn.commit == 0


class TestSSNWraparoundDrain:
    """Five-bit SSNs wrap every 31 stores, so the processor drains its
    pipeline and clears the T-SSBF, the SRQ and the SSN counters many
    times over one short trace (Section 2: "the processor drains its
    pipeline and clears all hardware structures that hold SSNs")."""

    SPECS = ("nosq?ssn_bits=5", "conventional?ssn_bits=5")

    @pytest.fixture(scope="class")
    def trace(self):
        return generate_trace("gzip", 4_000, seed=17)

    @pytest.mark.parametrize("spec", SPECS)
    def test_drains_and_recovers(self, trace, spec):
        processor = Processor(resolve_config(spec))
        stats = processor.run(trace)
        assert stats.ssn_wraps > 0
        assert stats.instructions == len(trace)
        _assert_drained(processor)

    def test_oracle_agrees_across_wraps(self, trace):
        result = run_validation(
            [resolve_config(spec) for spec in self.SPECS], trace,
            benchmark="gzip",
        )
        assert result.ok, "\n".join(r.describe() for r in result.reports)
        assert all(r.stats.ssn_wraps > 0 for r in result.reports)
