"""Tests for the memory substrate: sparse memory, caches, hierarchy, TLB."""

from hypothesis import given, strategies as st

from repro.memory import Cache, HierarchyConfig, MemoryHierarchy, SparseMemory, TLB


class TestSparseMemory:
    def test_unwritten_reads_zero(self):
        memory = SparseMemory()
        assert memory.read(0x1234, 8) == 0

    def test_little_endian_roundtrip(self):
        memory = SparseMemory()
        memory.write(0x100, 0x1122334455667788, 8)
        assert memory.read(0x100, 8) == 0x1122334455667788
        assert memory.read(0x100, 1) == 0x88  # low byte first
        assert memory.read(0x107, 1) == 0x11

    def test_partial_overwrite(self):
        memory = SparseMemory()
        memory.write(0x100, 0xAAAA_AAAA_AAAA_AAAA, 8)
        memory.write(0x102, 0xBBBB, 2)
        assert memory.read(0x100, 8) == 0xAAAA_AAAA_BBBB_AAAA

    def test_write_truncates_to_size(self):
        memory = SparseMemory()
        memory.write(0x0, 0x1_FF, 1)
        assert memory.read(0x0, 2) == 0xFF

    def test_load_bytes_and_dump(self):
        memory = SparseMemory()
        memory.load_bytes(0x40, b"hello")
        assert memory.read(0x40, 5).to_bytes(5, "little") == b"hello"

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=256),
                st.integers(min_value=0, max_value=2**64 - 1),
                st.sampled_from([1, 2, 4, 8]),
            ),
            max_size=32,
        )
    )
    def test_matches_bytearray_reference(self, writes):
        """SparseMemory must agree with a flat bytearray model."""
        memory = SparseMemory()
        reference = bytearray(512)
        for addr, value, size in writes:
            memory.write(addr, value, size)
            reference[addr:addr + size] = value.to_bytes(
                8, "little"
            )[:size]
        assert memory.read(0, 512).to_bytes(512, "little") == bytes(reference)


class TestCache:
    def test_cold_miss_then_hit(self):
        cache = Cache(size_bytes=1024, assoc=2, line_bytes=64)
        assert cache.access(0x100) is False
        assert cache.access(0x100) is True
        assert cache.access(0x13F) is True  # same line

    def test_lru_eviction(self):
        cache = Cache(size_bytes=256, assoc=2, line_bytes=64)  # 2 sets
        # Three lines mapping to set 0 (stride = 2 * 64).
        a, b, c = 0x000, 0x080, 0x100
        cache.access(a)
        cache.access(b)
        cache.access(c)          # evicts a (LRU)
        assert cache.access(b) is True
        assert cache.access(a) is False

    def test_access_refreshes_lru(self):
        cache = Cache(size_bytes=256, assoc=2, line_bytes=64)
        a, b, c = 0x000, 0x080, 0x100
        cache.access(a)
        cache.access(b)
        cache.access(a)          # refresh a
        cache.access(c)          # now evicts b
        assert cache.access(a) is True
        assert cache.access(b) is False

    def test_dirty_eviction_counts_writeback(self):
        """A write marks its line dirty; a conflicting read evicts it and
        installs a clean line."""
        cache = Cache(size_bytes=256, assoc=1, line_bytes=64)
        cache.access(0x000, is_write=True)
        assert list(cache._sets[0].values()) == [True]
        cache.access(0x100)      # conflicting line evicts dirty 0x000
        assert list(cache._sets[0].values()) == [False]
        assert cache.access(0x000) is False

    def test_stats_split_reads_writes(self):
        """A read miss allocates clean; a write hit on it marks it dirty."""
        cache = Cache(size_bytes=1024, assoc=2)
        assert cache.access(0x0) is False
        assert list(cache._sets[0].values()) == [False]
        assert cache.access(0x0, is_write=True) is True
        assert list(cache._sets[0].values()) == [True]


class TestHierarchy:
    def test_latency_tiers(self):
        hierarchy = MemoryHierarchy()
        cfg = hierarchy.config
        cold = hierarchy.read(0x4000)
        assert cold > cfg.l1_latency + cfg.l2_latency + cfg.memory_latency - 1
        warm = hierarchy.read(0x4000)
        assert warm == cfg.l1_latency

    def test_l2_hit_latency(self):
        config = HierarchyConfig(l1_size=128, l1_assoc=1, line_bytes=64)
        hierarchy = MemoryHierarchy(config)
        hierarchy.read(0x0000)
        hierarchy.read(0x0080)   # evicts 0x0000 from the tiny L1
        hierarchy.read(0x0100)
        latency = hierarchy.read(0x0000)  # L1 miss, L2 hit
        assert latency == config.l1_latency + config.l2_latency

    def test_write_allocates(self):
        hierarchy = MemoryHierarchy()
        hierarchy.write(0x9000)
        assert hierarchy.read(0x9000) == hierarchy.config.l1_latency


class TestTLB:
    def test_miss_then_hit(self):
        tlb = TLB(entries=8, assoc=2, miss_penalty=30)
        assert tlb.access(0x1000) == 30
        assert tlb.access(0x1FFF) == 0  # same page

    def test_lru_within_set(self):
        tlb = TLB(entries=4, assoc=2, page_bytes=4096, miss_penalty=30)
        # Pages mapping to set 0 (stride = num_sets * page).
        a, b, c = 0x0000, 0x2000, 0x4000
        tlb.access(a)
        tlb.access(b)
        tlb.access(a)           # refresh
        tlb.access(c)           # evicts b
        assert tlb.access(a) == 0
        assert tlb.access(b) == 30
