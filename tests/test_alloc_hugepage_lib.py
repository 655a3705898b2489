"""Unit tests for the paper's three-layer hugepage library."""

import pytest

from repro.alloc import (
    AllocationError,
    HugepageLibraryAllocator,
    HugepageLibraryConfig,
)
from repro.mem import (
    AddressSpace,
    HugeTLBfs,
    PAGE_2M,
    PAGE_4K,
    PhysicalMemory,
)

MB = 1024 * 1024
KB = 1024


@pytest.fixture
def aspace():
    pm = PhysicalMemory(1024 * MB, hugepages=64)
    return AddressSpace(pm, HugeTLBfs(pm))


@pytest.fixture
def lib(aspace):
    return HugepageLibraryAllocator(aspace)


class TestTransparencyLayer:
    def test_small_goes_to_libc(self, lib, aspace):
        p = lib.malloc(31 * KB)
        assert not lib.is_hugepage_backed(p)
        _, page_size = aspace.translate(p)
        assert page_size == PAGE_4K

    def test_cutoff_goes_to_hugepages(self, lib, aspace):
        p = lib.malloc(32 * KB)
        assert lib.is_hugepage_backed(p)
        _, page_size = aspace.translate(p)
        assert page_size == PAGE_2M

    def test_free_routes_to_owner(self, lib):
        small = lib.malloc(1 * KB)
        big = lib.malloc(1 * MB)
        lib.free(big)
        lib.free(small)
        assert lib.live_allocations == 0
        assert lib.libc.live_allocations == 0

    def test_custom_cutoff(self, aspace):
        lib = HugepageLibraryAllocator(
            aspace, config=HugepageLibraryConfig(cutoff_bytes=8 * KB)
        )
        assert lib.is_hugepage_backed(lib.malloc(8 * KB))
        assert not lib.is_hugepage_backed(lib.malloc(8 * KB - 1))

    def test_calloc_realloc_work(self, lib):
        p = lib.calloc(1024, 1024)  # 1 MB -> hugepages
        assert lib.is_hugepage_backed(p)
        q = lib.realloc(p, 2 * MB)
        assert lib.is_hugepage_backed(q)
        lib.free(q)


class TestMappingLayer:
    def test_fork_reserve_respected(self, aspace):
        total = aspace.hugetlbfs.total_pages
        lib = HugepageLibraryAllocator(
            aspace, config=HugepageLibraryConfig(fork_reserve_pages=4)
        )
        # a request that would eat the reserve falls back to libc
        p_fallback = lib.malloc((total - 3) * PAGE_2M)
        assert not lib.is_hugepage_backed(p_fallback)
        assert lib.counters[f"alloc.{lib.name}.fallback"] == 1
        lib.free(p_fallback)
        # a request leaving the reserve intact is served from hugepages
        p = lib.malloc((total - 4) * PAGE_2M)
        assert lib.is_hugepage_backed(p)
        assert aspace.hugetlbfs.free_pages == 4

    def test_pool_exhaustion_falls_back_transparently(self, aspace):
        """A preloaded library must never fail an allocation the
        application could have satisfied: when the pool is dry, large
        requests silently land on base pages."""
        lib = HugepageLibraryAllocator(
            aspace, config=HugepageLibraryConfig(fork_reserve_pages=0)
        )
        total = aspace.hugetlbfs.total_pages
        hogs = lib.malloc(total * PAGE_2M)  # drain the pool
        extra = lib.malloc(4 * PAGE_2M)     # still succeeds
        assert not lib.is_hugepage_backed(extra)
        lib.free(extra)
        lib.free(hogs)

    def test_min_map_pages(self, aspace):
        lib = HugepageLibraryAllocator(
            aspace, config=HugepageLibraryConfig(min_map_pages=4)
        )
        lib.malloc(64 * KB)
        assert lib.hugepages_mapped == 4

    def test_pages_mapped_grows_monotonically(self, lib):
        lib.malloc(3 * MB)
        first = lib.hugepages_mapped
        lib.malloc(3 * MB)
        assert lib.hugepages_mapped >= first


class TestManagementLayer:
    def test_reuse_without_remapping(self, lib):
        """Freed memory is reused: the pool never shrinks or remaps for a
        same-size cycle (the lazy-deregistration-friendly behaviour)."""
        p = lib.malloc(4 * MB)
        lib.free(p)
        mapped = lib.hugepages_mapped
        q = lib.malloc(4 * MB)
        assert q == p  # address-ordered first fit reuses the same spot
        assert lib.hugepages_mapped == mapped

    def test_same_size_cycle_is_cheap(self, lib):
        p = lib.malloc(8 * MB)
        lib.free(p)
        before = lib.stats.total_ns
        q = lib.malloc(8 * MB)
        lib.free(q)
        cycle = lib.stats.total_ns - before
        assert cycle < 1000  # no mapping, no populate, no coalescing

    def test_locality_between_buffers(self, lib):
        """Unlike libhugepagealloc, consecutive buffers share hugepages."""
        a = lib.malloc(64 * KB)
        b = lib.malloc(64 * KB)
        assert abs(b - a) <= PAGE_2M

    def test_deferred_coalescing_recovers_space(self, aspace):
        lib = HugepageLibraryAllocator(
            aspace, config=HugepageLibraryConfig(min_map_pages=1)
        )
        ptrs = [lib.malloc(512 * KB) for _ in range(4)]  # fills 1 hugepage
        mapped = lib.hugepages_mapped
        for p in ptrs:
            lib.free(p)
        # freelist now holds 4 non-coalesced 512 KB extents; a 2 MB request
        # must trigger the on-demand coalesce rather than mapping new pages
        q = lib.malloc(2 * MB - 4096)
        assert lib.hugepages_mapped == mapped
        assert q == ptrs[0]

    def test_management_free_of_foreign_pointer(self, lib):
        with pytest.raises(AllocationError):
            lib.management.free(0x1234000)


class TestFitPolicies:
    def test_best_fit_config(self, aspace):
        lib = HugepageLibraryAllocator(
            aspace, config=HugepageLibraryConfig(fit_policy="best")
        )
        p = lib.malloc(1 * MB)
        assert lib.is_hugepage_backed(p)

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            HugepageLibraryConfig(fit_policy="worst")

    def test_invalid_cutoff_rejected(self):
        with pytest.raises(ValueError):
            HugepageLibraryConfig(cutoff_bytes=100)


class TestCoalesceOnFreeAblation:
    def test_eager_coalescing_merges(self, aspace):
        lib = HugepageLibraryAllocator(
            aspace, config=HugepageLibraryConfig(coalesce_on_free=True)
        )
        a = lib.malloc(512 * KB)
        b = lib.malloc(512 * KB)
        lib.free(a)
        lib.free(b)
        # eager variant merges adjacent extents immediately
        assert len(lib.management.freelist) <= 2

    def test_paper_variant_defers(self, lib):
        a = lib.malloc(512 * KB)
        b = lib.malloc(512 * KB)
        lib.free(a)
        lib.free(b)
        ext = [e for e in lib.management.freelist.extents]
        assert len(ext) >= 2  # not merged on free
