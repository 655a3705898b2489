"""Unit tests for the TLB, cache and prefetcher models."""

import pytest

from repro.analysis import CounterSet
from repro.mem.cache import CacheConfig, DataCache, Prefetcher
from repro.mem.physical import PAGE_2M, PAGE_4K
from repro.mem.tlb import SplitTLB, TLBConfig


class TestTLBConfig:
    def test_opteron_defaults(self):
        cfg = TLBConfig()
        assert cfg.entries_4k == 544
        assert cfg.entries_2m == 8

    def test_coverage(self):
        cfg = TLBConfig()
        assert cfg.coverage_4k == 544 * PAGE_4K
        assert cfg.coverage_2m == 8 * PAGE_2M
        # the asymmetry the paper exploits: tiny hugepage array but huge reach
        assert cfg.coverage_2m > cfg.coverage_4k

    def test_walk_cost_cheaper_for_hugepages(self):
        cfg = TLBConfig()
        assert cfg.walk_ns(PAGE_2M) < cfg.walk_ns(PAGE_4K)

    def test_bad_page_size(self):
        with pytest.raises(ValueError):
            TLBConfig().entries_for(8192)

    @pytest.mark.parametrize("kwargs", [
        {"entries_4k": 0}, {"entries_2m": 0}, {"entries_4k": -1},
    ])
    def test_empty_array_rejected(self, kwargs):
        """A zero-entry array has no LRU to evict from: rejected up
        front instead of failing in access() or costing a sweep."""
        with pytest.raises(ValueError):
            TLBConfig(**kwargs)


class TestSplitTLBStateful:
    def test_miss_then_hit(self):
        tlb = SplitTLB(TLBConfig())
        hit, ns = tlb.access(0x1000, PAGE_4K)
        assert not hit and ns > 0
        hit, ns = tlb.access(0x1FFF, PAGE_4K)  # same page
        assert hit and ns == 0

    def test_arrays_are_independent(self):
        tlb = SplitTLB(TLBConfig(entries_4k=2, entries_2m=2))
        tlb.access(0x0, PAGE_4K)
        tlb.access(0x0, PAGE_2M)
        assert tlb.resident(PAGE_4K) == 1
        assert tlb.resident(PAGE_2M) == 1

    def test_lru_eviction(self):
        tlb = SplitTLB(TLBConfig(entries_4k=2, entries_2m=8))
        tlb.access(0 * PAGE_4K, PAGE_4K)
        tlb.access(1 * PAGE_4K, PAGE_4K)
        tlb.access(0 * PAGE_4K, PAGE_4K)  # refresh page 0
        tlb.access(2 * PAGE_4K, PAGE_4K)  # evicts page 1 (LRU)
        hit, _ = tlb.access(0 * PAGE_4K, PAGE_4K)
        assert hit
        hit, _ = tlb.access(1 * PAGE_4K, PAGE_4K)
        assert not hit

    def test_rotation_thrash_on_small_array(self):
        """>8 hugepage streams in round-robin never hit an 8-entry array."""
        tlb = SplitTLB(TLBConfig())
        pages = [i * PAGE_2M for i in range(9)]
        for p in pages:  # cold pass
            tlb.access(p, PAGE_2M)
        hits = sum(tlb.access(p, PAGE_2M)[0] for p in pages for _ in (0,))
        assert hits == 0

    def test_same_rotation_fits_4k_array(self):
        tlb = SplitTLB(TLBConfig())
        pages = [i * PAGE_4K for i in range(9)]
        for p in pages:
            tlb.access(p, PAGE_4K)
        hits = sum(tlb.access(p, PAGE_4K)[0] for p in pages)
        assert hits == 9

    def test_flush(self):
        tlb = SplitTLB(TLBConfig())
        tlb.access(0x1000, PAGE_4K)
        tlb.flush()
        hit, _ = tlb.access(0x1000, PAGE_4K)
        assert not hit

    def test_counters(self):
        counters = CounterSet()
        tlb = SplitTLB(TLBConfig(), counters)
        tlb.access(0x1000, PAGE_4K)
        tlb.access(0x1000, PAGE_4K)
        tlb.access(0x200000, PAGE_2M)
        assert counters["tlb.4k.miss"] == 1
        assert counters["tlb.4k.hit"] == 1
        assert counters["tlb.2m.miss"] == 1


class TestSplitTLBAnalytic:
    def test_stream_misses_per_page(self):
        tlb = SplitTLB(TLBConfig())
        assert tlb.analytic_stream_misses(10 * PAGE_4K, PAGE_4K) == 10
        assert tlb.analytic_stream_misses(10 * PAGE_4K, PAGE_2M) == 1

    def test_rotate_thrash_vs_resident(self):
        tlb = SplitTLB(TLBConfig())
        # 16 streams on hugepages (capacity 8): every switch misses
        huge = tlb.analytic_rotate_misses(16, 10_000, 0.0, PAGE_2M)
        # same on 4K pages (capacity 544): only the cold misses
        small = tlb.analytic_rotate_misses(16, 10_000, 0.0, PAGE_4K)
        assert huge == 10_000
        assert small == 16
        assert huge / small > 100

    def test_rotate_boundary_crossings_added(self):
        tlb = SplitTLB(TLBConfig())
        n = tlb.analytic_rotate_misses(4, 1000, 0.5, PAGE_4K)
        assert n == 4 + 500

    def test_random_coverage_model(self):
        tlb = SplitTLB(TLBConfig())
        # region exactly the 4K coverage: no misses at steady state
        n = tlb.analytic_random_misses(1000, TLBConfig().coverage_4k, PAGE_4K)
        assert n == 0
        # region 10x the coverage: 90% misses
        n = tlb.analytic_random_misses(1000, 10 * TLBConfig().coverage_4k, PAGE_4K)
        assert n == pytest.approx(900, abs=5)

    def test_validation(self):
        tlb = SplitTLB(TLBConfig())
        with pytest.raises(ValueError):
            tlb.analytic_stream_misses(0, PAGE_4K)
        with pytest.raises(ValueError):
            tlb.analytic_rotate_misses(0, 10, 0.0, PAGE_4K)
        with pytest.raises(ValueError):
            tlb.analytic_random_misses(10, 0, PAGE_4K)


class TestCacheConfig:
    @pytest.mark.parametrize("kwargs", [
        {"capacity_bytes": 32},                  # less than one 64 B line
        {"capacity_bytes": 0},
        {"line_size": 0},
        {"line_size": -64, "capacity_bytes": 64},
    ])
    def test_lineless_cache_rejected(self, kwargs):
        with pytest.raises(ValueError):
            CacheConfig(**kwargs)

    def test_one_line_cache_accepted(self):
        cache = DataCache(CacheConfig(capacity_bytes=64))
        assert cache.access(0) == (False, CacheConfig().miss_ns)
        assert cache.sweep(1, 3) == (0, 3, 3 * CacheConfig().miss_ns)
        assert cache.keys() == [3]


class TestDataCache:
    def test_miss_then_hit(self):
        cache = DataCache(CacheConfig())
        hit, ns = cache.access(0x40)
        assert not hit and ns == CacheConfig().miss_ns
        hit, ns = cache.access(0x7F)  # same 64B line
        assert hit and ns == CacheConfig().hit_ns

    def test_capacity_eviction(self):
        cfg = CacheConfig(line_size=64, capacity_bytes=128)  # 2 lines
        cache = DataCache(cfg)
        cache.access(0)
        cache.access(64)
        cache.access(128)  # evicts line 0
        hit, _ = cache.access(0)
        assert not hit

    def test_flush(self):
        cache = DataCache(CacheConfig())
        cache.access(0)
        cache.flush()
        hit, _ = cache.access(0)
        assert not hit

    def test_counters(self):
        counters = CounterSet()
        cache = DataCache(CacheConfig(), counters)
        cache.access(0)
        cache.access(0)
        assert counters["cache.miss"] == 1
        assert counters["cache.hit"] == 1


class TestPrefetcher:
    def test_unbroken_stream_is_cheap(self):
        cfg = CacheConfig()
        pf = Prefetcher(cfg)
        broken = pf.stream_cost_ns(1000, 16)
        smooth = pf.stream_cost_ns(1000, 1)
        assert smooth < broken

    def test_restart_cost_formula(self):
        cfg = CacheConfig(stream_restart_lines=4, miss_ns=80.0, prefetch_hit_ns=10.0)
        pf = Prefetcher(cfg)
        cost = pf.stream_cost_ns(100, 2)
        assert cost == 8 * 80.0 + 92 * 10.0

    def test_restart_lines_capped_at_total(self):
        cfg = CacheConfig(stream_restart_lines=4, miss_ns=80.0)
        pf = Prefetcher(cfg)
        assert pf.stream_cost_ns(2, 100) == 2 * 80.0

    def test_lines_for(self):
        pf = Prefetcher(CacheConfig(line_size=64))
        assert pf.lines_for(0) == 0
        assert pf.lines_for(1) == 1
        assert pf.lines_for(64) == 1
        assert pf.lines_for(65) == 2

    def test_negative_rejected(self):
        pf = Prefetcher(CacheConfig())
        with pytest.raises(ValueError):
            pf.stream_cost_ns(-1, 0)
        with pytest.raises(ValueError):
            pf.lines_for(-1)
