"""Tests for the benchmark profiles and the synthetic trace generator."""

import pytest

from repro.isa.trace import communication_stats
from repro.workloads import (
    FP_BENCHMARKS,
    INT_BENCHMARKS,
    MEDIA_BENCHMARKS,
    PROFILES,
    SELECTED_BENCHMARKS,
    SyntheticWorkload,
    generate_trace,
    profile,
)


class TestProfiles:
    def test_all_47_benchmarks_present(self):
        assert len(PROFILES) == 47
        assert len(MEDIA_BENCHMARKS) == 18
        assert len(INT_BENCHMARKS) == 16
        assert len(FP_BENCHMARKS) == 13

    def test_selected_benchmarks_exist(self):
        for name in SELECTED_BENCHMARKS:
            assert name in PROFILES

    def test_paper_values_sane(self):
        for prof in PROFILES.values():
            assert 0 <= prof.comm_pct <= 100
            assert prof.partial_pct <= prof.comm_pct or prof.comm_pct == 0
            assert prof.delay_mispred <= prof.nodelay_mispred or prof.nodelay_mispred <= 3
            assert prof.base_ipc > 0

    def test_derived_knobs_in_range(self):
        for prof in PROFILES.values():
            assert 0 <= prof.hard_frac <= 0.12
            assert 0.02 <= prof.hard_flip_rate <= 1.0
            shares = (
                prof.hard_multi_share + prof.hard_data_share
                + prof.hard_longpath_share
            )
            assert shares == pytest.approx(1.0, abs=0.01) or prof.hard_frac == 0

    def test_unknown_benchmark_raises(self):
        with pytest.raises(KeyError, match="unknown benchmark"):
            profile("quake3")

    def test_table5_spot_checks(self):
        """A few rows transcribed from the paper, verified literally."""
        gzip = profile("gzip")
        assert (gzip.comm_pct, gzip.partial_pct) == (15.0, 8.7)
        assert gzip.delayed_pct == 1.3
        mesa_o = profile("mesa.o")
        assert mesa_o.nodelay_mispred == 76.3
        mcf = profile("mcf")
        assert mcf.base_ipc == 0.22


class TestGenerator:
    @pytest.fixture(scope="class")
    def gzip_trace(self):
        return generate_trace("gzip", num_instructions=20_000)

    def test_length_at_least_requested(self, gzip_trace):
        assert len(gzip_trace) >= 20_000

    def test_communication_matches_profile(self, gzip_trace):
        stats = communication_stats(gzip_trace)
        prof = profile("gzip")
        assert abs(stats.pct_communicating - prof.comm_pct) < 3.0
        assert abs(stats.pct_partial_word - prof.partial_pct) < 3.0

    def test_instruction_mix(self, gzip_trace):
        stats = communication_stats(gzip_trace)
        n = len(gzip_trace)
        prof = profile("gzip")
        assert abs(stats.loads / n - prof.load_frac) < 0.03
        assert abs(stats.stores / n - prof.store_frac) < 0.03
        assert abs(stats.branches / n - prof.branch_frac) < 0.04

    def test_determinism(self):
        first = generate_trace("vortex", num_instructions=5_000)
        second = generate_trace("vortex", num_instructions=5_000)
        assert len(first) == len(second)
        assert all(
            a.pc == b.pc and a.addr == b.addr and a.op == b.op
            for a, b in zip(first, second)
        )

    def test_generate_restarts_on_every_call(self):
        # Register rotations and the pointer-chase register restart too,
        # so a second call repeats the first field for field.
        workload = SyntheticWorkload(profile("mcf"), seed=17)
        assert workload.generate(3_000) == workload.generate(3_000)

    def test_seeds_differ(self):
        first = generate_trace("vortex", num_instructions=5_000, seed=1)
        second = generate_trace("vortex", num_instructions=5_000, seed=2)
        assert any(a.addr != b.addr for a, b in zip(first, second)
                   if a.is_load and b.is_load)

    def test_accesses_are_aligned(self, gzip_trace):
        for inst in gzip_trace:
            if inst.is_load or inst.is_store:
                assert inst.addr % inst.size == 0

    def test_annotations_present(self, gzip_trace):
        loads = [i for i in gzip_trace if i.is_load]
        assert loads
        assert all(len(i.src_stores) == i.size for i in loads)

    def test_zero_communication_profile(self):
        trace = generate_trace("adpcm.d", num_instructions=8_000)
        stats = communication_stats(trace)
        assert stats.pct_communicating < 2.0

    def test_multi_source_present_for_partial_heavy(self):
        trace = generate_trace("g721.e", num_instructions=15_000)
        stats = communication_stats(trace)
        assert stats.multi_source_loads > 0

    def test_far_communication_outside_window(self):
        """Far loads communicate beyond the 128-instruction window but
        within 256 (the Figure 3 mechanism)."""
        trace = generate_trace("eon.k", num_instructions=20_000)
        far = [
            i for i in trace
            if i.is_load and i.communicates and 128 < i.dist_insns <= 300
        ]
        assert far

    @pytest.mark.parametrize("name", sorted(PROFILES))
    def test_every_profile_generates(self, name):
        trace = SyntheticWorkload(profile(name), seed=3).generate(2_000)
        assert len(trace) >= 2_000

    def test_stable_static_pcs(self, gzip_trace):
        """A static load site keeps one distance behaviour: the same PC must
        not appear with wildly differing store/load sizes."""
        sizes_by_pc: dict[int, set] = {}
        for inst in gzip_trace:
            if inst.is_load:
                sizes_by_pc.setdefault(inst.pc, set()).add(inst.size)
        assert all(len(sizes) == 1 for sizes in sizes_by_pc.values())
