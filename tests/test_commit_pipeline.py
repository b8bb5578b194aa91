"""Tests for the in-order back-end commit pipeline model."""

from repro.core import BackendConfig, CommitPipeline
from repro.memory import MemoryHierarchy, TLB


def _tlb_entries(pipeline):
    return sum(len(s) for s in pipeline.tlb._sets)


def _l1_tags(pipeline, addr):
    """The tags held in the L1 set that *addr* maps to."""
    l1 = pipeline.hierarchy.l1
    line = addr >> l1._line_shift
    return list(l1._sets[line & l1._set_mask] or ())


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
        assert _tlb_entries(pipeline) == 0


class TestReexecution:
    def test_reexec_shares_the_port(self):
        pipeline = make_pipeline(translate_stores=False)
        store_visible = pipeline.store_commit(100, 0x100, 8)
        reexec_done = pipeline.load_reexec(100, 0x200)
        assert reexec_done == store_visible + 1
        # Without the store, the re-execution would have had the port at
        # its own data-cache stage.
        assert reexec_done > 100 + pipeline.config.dcache_offset + 1

    def test_bypassed_load_translates(self):
        pipeline = make_pipeline()
        done = pipeline.load_reexec(100, 0x5000, translate=True)
        # A cold TLB misses: the returned cycle carries the miss penalty.
        assert done == 100 + pipeline.config.dcache_offset + 30 + 1
        assert _tlb_entries(pipeline) == 1

    def test_nonbypassed_load_does_not_translate(self):
        pipeline = make_pipeline()
        done = pipeline.load_reexec(100, 0x5000, translate=False)
        assert done == 100 + pipeline.config.dcache_offset + 1
        assert _tlb_entries(pipeline) == 0

    def test_backend_read_counter(self):
        """Each re-execution reads the data cache, allocating its line."""
        pipeline = make_pipeline()
        pipeline.load_reexec(100, 0x100)
        pipeline.load_reexec(110, 0x4000)
        assert _l1_tags(pipeline, 0x100) and _l1_tags(pipeline, 0x4000)
        assert sum(len(s) for s in pipeline.hierarchy.l1._sets if s) == 2

    def test_reexec_touches_the_cache(self):
        pipeline = make_pipeline()
        assert _l1_tags(pipeline, 0x100) == []
        pipeline.load_reexec(100, 0x100)   # miss: allocates the line
        tags = _l1_tags(pipeline, 0x100)
        assert len(tags) == 1
        pipeline.load_reexec(110, 0x100)   # hit: allocates nothing
        assert _l1_tags(pipeline, 0x100) == tags
