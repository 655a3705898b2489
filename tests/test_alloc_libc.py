"""Unit tests for the glibc-like allocator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.alloc import AllocationError, LibcAllocator, LibhugetlbfsAllocator
from repro.alloc.libc import HEADER, MMAP_THRESHOLD
from repro.mem import AddressSpace, HugeTLBfs, PhysicalMemory

MB = 1024 * 1024


@pytest.fixture
def aspace():
    pm = PhysicalMemory(1024 * MB, hugepages=32)
    return AddressSpace(pm, HugeTLBfs(pm))


@pytest.fixture
def libc(aspace):
    return LibcAllocator(aspace)


class TestBasicAllocation:
    def test_malloc_returns_mapped_address(self, libc, aspace):
        p = libc.malloc(100)
        paddr, size = aspace.translate(p)
        assert size == 4096

    def test_allocations_disjoint(self, libc):
        ptrs = [libc.malloc(64) for _ in range(50)]
        spans = sorted((p, p + 64) for p in ptrs)
        for (a0, a1), (b0, _b1) in zip(spans, spans[1:]):
            assert a1 <= b0

    def test_malloc_zero_rejected(self, libc):
        with pytest.raises(AllocationError):
            libc.malloc(0)

    def test_free_unknown_rejected(self, libc):
        with pytest.raises(AllocationError):
            libc.free(0xDEADBEEF)

    def test_double_free_rejected(self, libc):
        p = libc.malloc(64)
        libc.free(p)
        with pytest.raises(AllocationError):
            libc.free(p)

    def test_stats_track_live_bytes(self, libc):
        p = libc.malloc(1000)
        assert libc.stats.current_bytes == 1000
        libc.free(p)
        assert libc.stats.current_bytes == 0
        assert libc.stats.peak_bytes == 1000

    def test_calloc_charges_zeroing(self, libc):
        before = libc.stats.malloc_ns
        libc.calloc(10, 1000)
        cost_calloc = libc.stats.malloc_ns - before
        before = libc.stats.malloc_ns
        libc.malloc(10_000)
        cost_malloc = libc.stats.malloc_ns - before
        assert cost_calloc > cost_malloc

    def test_realloc_preserves_accounting(self, libc):
        p = libc.malloc(100)
        q = libc.realloc(p, 200)
        assert libc.stats.current_bytes == 200
        assert libc.allocation_size(q) == 200
        assert not libc.owns(p) or p == q

    def test_realloc_null_is_malloc(self, libc):
        q = libc.realloc(0, 128)
        assert libc.allocation_size(q) == 128


class TestBins:
    def test_fastbin_reuse_is_lifo(self, libc):
        a = libc.malloc(32)
        b = libc.malloc(32)
        libc.free(a)
        libc.free(b)
        c = libc.malloc(32)
        assert c == b  # LIFO: last freed is handed out first

    def test_fastbin_is_cheap(self, libc):
        p = libc.malloc(64)
        libc.free(p)
        before = libc.stats.malloc_ns
        libc.malloc(64)
        fast_cost = libc.stats.malloc_ns - before
        assert fast_cost < 100  # a couple of pointer ops, no search

    def test_bin_reuse_of_medium_blocks(self, libc):
        p = libc.malloc(4000)
        libc.free(p)
        q = libc.malloc(4000)
        assert q == p  # coalesce + split hands back the same spot

    def test_split_and_coalesce_cycle(self, libc):
        """Same-size alloc/free cycles exercise the split/coalesce churn
        the paper's no-coalesce design avoids."""
        costs = []
        for _ in range(10):
            before = libc.stats.total_ns
            p = libc.malloc(8000)
            libc.free(p)
            costs.append(libc.stats.total_ns - before)
        assert min(costs) > 0


class TestMmapPath:
    def test_large_goes_to_mmap(self, libc, aspace):
        p = libc.malloc(MMAP_THRESHOLD)
        vma = aspace.find_vma(p)
        assert vma is not None
        assert vma.name == "libc-mmap"

    def test_mmap_free_unmaps(self, libc, aspace):
        pm = aspace.physical
        before = pm.free_small_frames
        p = libc.malloc(2 * MB)
        assert pm.free_small_frames < before
        libc.free(p)
        assert pm.free_small_frames == before

    def test_mmap_cycle_repays_population(self, libc):
        """Each mmap alloc/free cycle repays syscall + page population —
        the thrash cost hugepage placement eliminates."""
        cycle_costs = []
        for _ in range(3):
            before = libc.stats.total_ns
            p = libc.malloc(8 * MB)
            libc.free(p)
            cycle_costs.append(libc.stats.total_ns - before)
        # no amortization: every cycle pays roughly the same
        assert max(cycle_costs) < 1.5 * min(cycle_costs)
        assert min(cycle_costs) > 100_000  # population dominates (~0.8ms)

    def test_mmap_disabled_flag(self, aspace):
        libc = LibcAllocator(aspace, use_mmap=False)
        p = libc.malloc(2 * MB)
        vma = aspace.find_vma(p)
        assert vma is None or vma.name != "libc-mmap"


class TestHeapGrowth:
    def test_heap_grows_on_demand(self, libc, aspace):
        base_brk = aspace.brk
        libc.malloc(64 * 1024)
        assert aspace.brk > base_brk

    def test_trim_returns_memory(self, libc, aspace):
        ptrs = [libc.malloc(100 * 1024) for _ in range(4)]
        grown = aspace.brk
        for p in ptrs:
            libc.free(p)
        assert aspace.brk < grown

    def test_header_overhead_exists(self, libc):
        """Blocks carry metadata: two back-to-back allocations are spaced
        more than their payload."""
        a = libc.malloc(48)
        b = libc.malloc(48)
        assert abs(b - a) >= 48 + HEADER


class TestDiagnostics:
    def test_free_bytes_tracks(self, libc):
        p = libc.malloc(4000)
        held = libc.heap_bytes()
        freed_before = libc.free_bytes()
        libc.free(p)
        assert libc.free_bytes() > freed_before
        assert libc.heap_bytes() == held

    def test_live_allocations(self, libc):
        p = libc.malloc(64)
        q = libc.malloc(64)
        assert libc.live_allocations == 2
        libc.free(p)
        libc.free(q)
        assert libc.live_allocations == 0


def scan_top(libc):
    """The brute-force oracle for ``LibcAllocator._top``: the heap block
    that ends at the heap end, found by walking every block."""
    addr = libc._heap_end
    if addr is None:
        return None
    best = None
    for b in libc._blocks.values():
        if b.addr + b.size == addr:
            return b
        if b.addr < addr and (best is None or b.addr > best.addr):
            best = b
    return None if best is None or best.addr + best.size != addr else best


class _CheckedMorecore:
    """Delegates to a real morecore; at every growth, requires the
    allocator's O(1) heap top to be the block the scan finds."""

    def __init__(self, libc):
        self.libc = libc
        self.inner = libc.morecore
        self.grows = 0
        self.trims = 0

    def extend(self, nbytes):
        assert self.libc._top is scan_top(self.libc)
        self.grows += 1
        return self.inner.extend(nbytes)

    def shrink(self, nbytes):
        self.trims += 1
        return self.inner.shrink(nbytes)


_heap_ops = st.lists(
    st.one_of(
        st.tuples(st.just("malloc"),
                  st.one_of(st.integers(1, 160),
                            st.integers(161, MMAP_THRESHOLD - 1))),
        st.tuples(st.just("free"), st.integers(0, 1 << 16)),
    ),
    max_size=60,
)


class TestHeapTop:
    @pytest.mark.parametrize("cls", [LibcAllocator, LibhugetlbfsAllocator])
    @given(ops=_heap_ops)
    @settings(max_examples=60, deadline=None)
    def test_top_matches_scan_through_growth_and_trim(self, cls, ops):
        pm = PhysicalMemory(1024 * MB, hugepages=128)
        libc = cls(AddressSpace(pm, HugeTLBfs(pm)))
        spy = libc.morecore = _CheckedMorecore(libc)
        # three near-threshold blocks force growth (three contiguous brk
        # extensions, or one hugepage arena), and freeing them again
        # leaves a fat free top to trim
        live = [libc.malloc(MMAP_THRESHOLD - 1024) for _ in range(3)]
        while live:
            libc.free(live.pop())
            assert libc._top is scan_top(libc)
        assert spy.grows >= 1 and spy.trims >= 1
        for kind, value in ops:
            if kind == "malloc":
                live.append(libc.malloc(value))
            elif live:
                libc.free(live.pop(value % len(live)))
            assert libc._top is scan_top(libc)
        while live:
            libc.free(live.pop())
            assert libc._top is scan_top(libc)


class TestHugepageHeapIsNeverTrimmed:
    def test_lifo_churn_reuses_the_same_two_hugepages(self):
        """``HugeMorecore.shrink`` gives nothing back, so the allocator
        must not trim its top either: a trimmed tail would stay mapped
        but leave the heap for good, and the next round of demand would
        map a third hugepage for what two already hold."""
        pm = PhysicalMemory(256 * MB, hugepages=8)
        libc = LibhugetlbfsAllocator(AddressSpace(pm, HugeTLBfs(pm)))
        for _ in range(4):
            live = [libc.malloc(100 * 1024) for _ in range(25)]
            while live:
                libc.free(live.pop())
            assert pm.total_hugepages - pm.free_hugepages == 2
            assert libc.heap_bytes() == 4 * MB
