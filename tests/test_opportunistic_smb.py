"""Tests for the opportunistic-SMB design point (the paper's Table 1
background design: SMB as a complement to store-queue forwarding)."""

import pytest

from repro.harness.runner import ExperimentScale, make_trace
from repro.pipeline import MachineConfig, Processor
from repro.pipeline.processor import SimulationError
from tests.conftest import build_trace, comm_loop_specs

TINY = ExperimentScale("tiny", num_instructions=6_000, warmup=2_500)


class TestConfig:
    def test_factory(self):
        config = MachineConfig.conventional_smb()
        assert config.smb_opportunistic
        assert config.sq_size == 24          # the store queue remains
        assert config.lq_size == 48
        assert config.backend.depth == 6     # conventional back end
        assert config.name == "sq-smb"

    def test_window_scaling(self):
        config = MachineConfig.conventional_smb(window=256)
        assert config.rob_size == 256
        assert config.name == "sq-smb-w256"


class TestBehaviour:
    def test_short_circuits_comm_loads(self):
        trace = build_trace(comm_loop_specs(iterations=96))
        stats = Processor(MachineConfig.conventional_smb()).run(trace)
        # After training, most instances short-circuit through rename ...
        assert stats.bypassed_loads > 40
        # ... but the loads still execute and read the cache (the SQ/cache
        # remain the value source of record).
        assert stats.ooo_dcache_reads >= stats.loads

    def test_in_flight_ssn_missing_from_srq_raises(self):
        # Every SSN in (SSNcommit, SSNrename] has an SRQ entry; a miss is
        # an inconsistency here as in the NoSQ dispatcher.
        trace = build_trace(comm_loop_specs(iterations=96))
        processor = Processor(MachineConfig.conventional_smb())
        processor.srq.lookup = lambda ssn: None
        with pytest.raises(SimulationError, match="missing from SRQ"):
            processor.run(trace)

    def test_latency_benefit_on_dependent_chains(self):
        specs = []
        for i in range(200):
            addr = 0x8000 + 8 * (i % 32)
            specs += [
                ("alu", 8, 9, {"pc": 0x2000}),
                ("st", addr, 8, 8, {"pc": 0x2004}),
                ("ld", addr, 8, {"pc": 0x2008}),
                ("alu", 9, 16, {"pc": 0x200C}),
            ]
        trace = build_trace(specs)
        warmup = len(trace) // 2
        plain = Processor(MachineConfig.conventional()).run(
            trace, warmup=warmup
        )
        smb = Processor(MachineConfig.conventional_smb()).run(
            trace, warmup=warmup
        )
        assert smb.cycles <= plain.cycles

    def test_runs_generated_workloads(self):
        trace = make_trace("gzip", TINY)
        stats = Processor(MachineConfig.conventional_smb()).run(
            trace, warmup=TINY.warmup
        )
        assert stats.instructions == len(trace) - TINY.warmup
        assert stats.bypassed_loads > 0

    def test_wrong_predictions_counted(self):
        # Data-dependent distances: the opportunistic short-circuit is
        # sometimes wrong and verification (the executing load) catches it.
        specs = []
        for i in range(150):
            a = 0x8000 + 16 * (i % 32)
            b = a + 8
            chosen = a if i % 3 == 0 else b
            specs += [
                ("alu", 8, {"pc": 0x2000}),
                ("st", a, 8, 8, {"pc": 0x2004}),
                ("st", b, 8, 8, {"pc": 0x2008}),
                ("ld", chosen, 8, {"pc": 0x200C}),
            ]
        trace = build_trace(specs)
        stats = Processor(MachineConfig.conventional_smb()).run(trace)
        assert stats.flush_wrong_store > 0

    def test_never_slower_than_an_order_of_magnitude(self):
        """Sanity: opportunistic SMB is a small perturbation of the
        baseline, never a collapse."""
        trace = make_trace("vortex", TINY)
        plain = Processor(MachineConfig.conventional()).run(
            trace, warmup=TINY.warmup
        )
        smb = Processor(MachineConfig.conventional_smb()).run(
            trace, warmup=TINY.warmup
        )
        assert smb.cycles < plain.cycles * 1.3
