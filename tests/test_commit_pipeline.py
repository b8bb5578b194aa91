"""Tests for the in-order back-end commit pipeline model."""

from repro.core import BackendConfig, CommitPipeline
from repro.memory import MemoryHierarchy, TLB


def make_pipeline(backend=None, translate_stores=True):
    return CommitPipeline(
        backend or BackendConfig.nosq(),
        MemoryHierarchy(),
        TLB(miss_penalty=30),
        translate_stores=translate_stores,
    )


class TestBackendShapes:
    def test_conventional_is_six_stages(self):
        backend = BackendConfig.conventional()
        assert backend.depth == 6
        assert backend.dcache_offset == 2

    def test_nosq_is_eight_stages(self):
        """Section 4.1: setup, 2x regread, agen/SVW, 3x dcache, commit."""
        backend = BackendConfig.nosq()
        assert backend.depth == 8
        assert backend.dcache_offset == 4

    def test_nosq_flush_penalty_exceeds_conventional(self):
        nosq = make_pipeline(BackendConfig.nosq())
        conv = make_pipeline(BackendConfig.conventional())
        assert nosq.flush_detect_cycle(100) > conv.flush_detect_cycle(100)


class TestStoreVisibility:
    def test_visible_after_dcache_stage(self):
        pipeline = make_pipeline(translate_stores=False)
        visible = pipeline.store_commit(entry_cycle=100, addr=0x100, size=8)
        assert visible == 100 + pipeline.config.dcache_offset + 1

    def test_port_serializes_back_to_back_stores(self):
        pipeline = make_pipeline(translate_stores=False)
        first = pipeline.store_commit(100, 0x100, 8)
        second = pipeline.store_commit(100, 0x200, 8)
        assert second == first + 1

    def test_tlb_miss_delays_nosq_store(self):
        pipeline = make_pipeline(translate_stores=True)
        visible = pipeline.store_commit(100, 0x100, 8)
        assert visible > 100 + pipeline.config.dcache_offset + 1  # TLB miss

    def test_conventional_store_skips_commit_translation(self):
        pipeline = make_pipeline(
            BackendConfig.conventional(), translate_stores=False
        )
        visible = pipeline.store_commit(100, 0x100, 8)
        assert visible == 100 + 2 + 1
        assert pipeline.tlb.stats.hits + pipeline.tlb.stats.misses == 0


class TestReexecution:
    def test_reexec_shares_the_port(self):
        pipeline = make_pipeline(translate_stores=False)
        store_visible = pipeline.store_commit(100, 0x100, 8)
        reexec_done = pipeline.load_reexec(100, 0x200)
        assert reexec_done == store_visible + 1
        assert pipeline.stats.port_conflict_cycles > 0

    def test_bypassed_load_translates(self):
        pipeline = make_pipeline()
        pipeline.load_reexec(100, 0x5000, translate=True)
        assert pipeline.tlb.stats.hits + pipeline.tlb.stats.misses == 1

    def test_nonbypassed_load_does_not_translate(self):
        pipeline = make_pipeline()
        pipeline.load_reexec(100, 0x5000, translate=False)
        assert pipeline.tlb.stats.hits + pipeline.tlb.stats.misses == 0

    def test_backend_read_counter(self):
        pipeline = make_pipeline()
        pipeline.load_reexec(100, 0x100)
        pipeline.load_reexec(110, 0x200)
        assert pipeline.stats.reexec_reads == 2

    def test_reexec_touches_the_cache(self):
        pipeline = make_pipeline()
        l1 = pipeline.hierarchy.l1.stats
        pipeline.load_reexec(100, 0x100)
        assert (l1.read_hits, l1.read_misses) == (0, 1)
        pipeline.load_reexec(110, 0x100)
        assert (l1.read_hits, l1.read_misses) == (1, 1)
