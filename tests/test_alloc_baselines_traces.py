"""Tests for the baseline allocators (§2) and trace replay."""

import pytest

from repro.alloc import (
    HugepageLibraryAllocator,
    LibcAllocator,
    LibhugepageallocAllocator,
    LibhugetlbfsAllocator,
    TraceOp,
    abinit_like_trace,
    replay,
)
from repro.mem import AddressSpace, HugeTLBfs, PAGE_2M, PhysicalMemory

MB = 1024 * 1024
KB = 1024


def make_aspace(hugepages=256):
    pm = PhysicalMemory(2048 * MB, hugepages=hugepages)
    return AddressSpace(pm, HugeTLBfs(pm))


class TestLibhugetlbfs:
    def test_everything_in_hugepages(self):
        """§2: 'every buffer that is allocated by the libc resides in
        hugepages' — including tiny ones."""
        aspace = make_aspace()
        alloc = LibhugetlbfsAllocator(aspace)
        for size in (16, 1 * KB, 31 * KB, 1 * MB):
            p = alloc.malloc(size)
            _, page_size = aspace.translate(p)
            assert page_size == PAGE_2M

    def test_libc_machinery_still_manages(self):
        aspace = make_aspace()
        alloc = LibhugetlbfsAllocator(aspace)
        a = alloc.malloc(32)
        b = alloc.malloc(32)
        alloc.free(a)
        alloc.free(b)
        c = alloc.malloc(32)
        assert c == b  # fastbin LIFO: it's the libc allocator underneath

    def test_no_mmap_fallback(self):
        aspace = make_aspace()
        alloc = LibhugetlbfsAllocator(aspace)
        p = alloc.malloc(4 * MB)  # above the libc mmap threshold
        _, page_size = aspace.translate(p)
        assert page_size == PAGE_2M


class TestLibhugepagealloc:
    def test_no_shared_hugepages(self):
        """§2: 'every buffer is mapped into a separate hugepage'."""
        aspace = make_aspace()
        alloc = LibhugepageallocAllocator(aspace)
        a = alloc.malloc(100)
        b = alloc.malloc(100)
        pa, _ = aspace.translate(a)
        pb, _ = aspace.translate(b)
        assert pa // PAGE_2M != pb // PAGE_2M

    def test_waste_visible(self):
        aspace = make_aspace()
        alloc = LibhugepageallocAllocator(aspace)
        for _ in range(8):
            alloc.malloc(64)
        held = sum(vma.length for vma in aspace.vmas if vma.name == "libhugepagealloc")
        assert held == 8 * PAGE_2M  # 16 MB for 512 bytes of data

    def test_not_thread_safe_flag(self):
        assert LibhugepageallocAllocator.thread_safe is False

    def test_free_releases_page(self):
        aspace = make_aspace()
        alloc = LibhugepageallocAllocator(aspace)
        free_before = aspace.hugetlbfs.free_pages
        p = alloc.malloc(100)
        assert aspace.hugetlbfs.free_pages == free_before - 1
        alloc.free(p)
        assert aspace.hugetlbfs.free_pages == free_before


class TestTraceGeneration:
    def test_deterministic(self):
        assert abinit_like_trace(seed=1) == abinit_like_trace(seed=1)
        assert abinit_like_trace(seed=1) != abinit_like_trace(seed=2)

    def test_balanced_per_iteration(self):
        trace = abinit_like_trace(iterations=5)
        mallocs = sum(1 for op in trace if op.op == "malloc")
        frees = sum(1 for op in trace if op.op == "free")
        assert mallocs - frees == 4  # only the persistent set stays live

    def test_validation(self):
        with pytest.raises(ValueError):
            abinit_like_trace(iterations=0)
        with pytest.raises(ValueError):
            TraceOp("malloc", 1, 0)
        with pytest.raises(ValueError):
            TraceOp("mystery", 1)


class TestReplay:
    def test_replay_counts(self):
        trace = abinit_like_trace(iterations=3)
        aspace = make_aspace()
        result = replay(trace, LibcAllocator(aspace))
        assert result.mallocs == sum(1 for op in trace if op.op == "malloc")
        assert result.frees == sum(1 for op in trace if op.op == "free")
        assert result.total_ns > 0

    def test_unknown_handle_rejected(self):
        aspace = make_aspace()
        with pytest.raises(ValueError):
            replay([TraceOp("free", 99)], LibcAllocator(aspace))

    def test_library_beats_libc_on_abinit_trace(self):
        """The §2 claim: 'allocation benefits of up to 10 times with our
        library (e.g. for Abinit)'.  The shape requirement here is a
        multiple-fold improvement."""
        trace = abinit_like_trace(iterations=10)
        r_libc = replay(trace, LibcAllocator(make_aspace()))
        r_lib = replay(trace, HugepageLibraryAllocator(make_aspace()))
        assert r_libc.total_ns / r_lib.total_ns > 3.0

    def test_mapping_cost_amortizes(self):
        """Hugepage mapping/population is one-time: a second pass over the
        same trace reuses the mapped pool and is strictly cheaper."""
        trace = abinit_like_trace(iterations=10)
        lib = HugepageLibraryAllocator(make_aspace())
        cold = replay(trace, lib)
        warm = replay(trace, lib)
        assert warm.total_ns < cold.total_ns
        assert lib.hugepages_mapped > 0

    def test_warm_library_reaches_order_of_magnitude_over_libc(self):
        """§2's 'up to 10 times': once the hugepage pool is warm, the
        dense freelist beats libc's churn by roughly an order of
        magnitude on the Abinit trace."""
        trace = abinit_like_trace(iterations=10)
        libc = LibcAllocator(make_aspace())
        replay(trace, libc)
        r_libc = replay(trace, libc)
        lib = HugepageLibraryAllocator(make_aspace())
        replay(trace, lib)
        r_lib = replay(trace, lib)
        assert r_libc.total_ns / r_lib.total_ns > 8.0

    def test_peak_bytes_recorded(self):
        trace = abinit_like_trace(iterations=2)
        result = replay(trace, LibcAllocator(make_aspace()))
        assert result.peak_bytes > 48 * MB  # 6 large arrays of 8 MB live
