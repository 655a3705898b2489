"""Unit tests for address spaces (repro.mem.address_space)."""

import pytest

from repro.mem import (
    AddressSpace,
    HugePagePoolExhausted,
    HugeTLBfs,
    MappingError,
    PAGE_2M,
    PAGE_4K,
    PhysicalMemory,
)
from repro.mem.address_space import BRK_BASE

MB = 1024 * 1024


@pytest.fixture
def machine_mem():
    pm = PhysicalMemory(256 * MB, hugepages=16)
    fs = HugeTLBfs(pm)
    return pm, fs


@pytest.fixture
def aspace(machine_mem):
    pm, fs = machine_mem
    return AddressSpace(pm, fs)


class TestMmap4K:
    def test_basic_mapping(self, aspace):
        vma = aspace.mmap(10 * PAGE_4K)
        assert vma.length == 10 * PAGE_4K
        assert vma.page_size == PAGE_4K
        for off in range(0, vma.length, PAGE_4K):
            paddr, size = aspace.translate(vma.start + off)
            assert size == PAGE_4K

    def test_length_rounded_up(self, aspace):
        vma = aspace.mmap(100)
        assert vma.length == PAGE_4K

    def test_zero_length_rejected(self, aspace):
        with pytest.raises(MappingError):
            aspace.mmap(0)

    def test_mappings_dont_overlap(self, aspace):
        a = aspace.mmap(4 * PAGE_4K)
        b = aspace.mmap(4 * PAGE_4K)
        assert b.end <= a.start or a.end <= b.start

    def test_frames_returned_on_munmap(self, aspace, machine_mem):
        pm, _ = machine_mem
        before = pm.free_small_frames
        vma = aspace.mmap(8 * PAGE_4K)
        assert pm.free_small_frames == before - 8
        aspace.munmap(vma.start)
        assert pm.free_small_frames == before

    def test_munmap_unknown_rejected(self, aspace):
        with pytest.raises(MappingError):
            aspace.munmap(0xDEAD000)

    def test_translate_after_munmap_faults(self, aspace):
        from repro.mem.paging import TranslationFault

        vma = aspace.mmap(PAGE_4K)
        aspace.munmap(vma.start)
        with pytest.raises(TranslationFault):
            aspace.translate(vma.start)


class TestMmapHuge:
    def test_basic_huge_mapping(self, aspace, machine_mem):
        _, fs = machine_mem
        vma = aspace.mmap(4 * MB, page_size=PAGE_2M)
        assert vma.page_size == PAGE_2M
        assert vma.length == 4 * MB
        assert fs.free_pages == 14
        paddr, size = aspace.translate(vma.start + 3 * MB)
        assert size == PAGE_2M

    def test_huge_rounding(self, aspace):
        vma = aspace.mmap(1, page_size=PAGE_2M)
        assert vma.length == PAGE_2M

    def test_huge_alignment(self, aspace):
        vma = aspace.mmap(PAGE_2M, page_size=PAGE_2M)
        assert vma.start % PAGE_2M == 0

    def test_reserve_respected(self, aspace, machine_mem):
        _, fs = machine_mem
        with pytest.raises(HugePagePoolExhausted):
            aspace.mmap(16 * PAGE_2M, page_size=PAGE_2M, keep_hugepage_reserve=1)
        # without reserve it fits exactly
        vma = aspace.mmap(16 * PAGE_2M, page_size=PAGE_2M)
        assert fs.free_pages == 0
        aspace.munmap(vma.start)
        assert fs.free_pages == 16

    def test_no_hugetlbfs(self, machine_mem):
        pm, _ = machine_mem
        aspace = AddressSpace(pm, hugetlbfs=None)
        with pytest.raises(MappingError):
            aspace.mmap(PAGE_2M, page_size=PAGE_2M)

    def test_unsupported_page_size(self, aspace):
        with pytest.raises(MappingError):
            aspace.mmap(PAGE_4K, page_size=8192)


class TestBrk:
    def test_sbrk_grows(self, aspace):
        old = aspace.sbrk(100)
        assert old == BRK_BASE
        assert aspace.brk == BRK_BASE + 100
        # the partial page is mapped
        paddr, _ = aspace.translate(BRK_BASE + 50)
        assert paddr >= 0

    def test_sbrk_returns_previous_break(self, aspace):
        aspace.sbrk(1000)
        old = aspace.sbrk(500)
        assert old == BRK_BASE + 1000

    def test_sbrk_shrink_frees_frames(self, aspace, machine_mem):
        pm, _ = machine_mem
        before = pm.free_small_frames
        aspace.sbrk(10 * PAGE_4K)
        assert pm.free_small_frames == before - 10
        aspace.sbrk(-10 * PAGE_4K)
        assert pm.free_small_frames == before

    def test_sbrk_below_base_rejected(self, aspace):
        with pytest.raises(MappingError):
            aspace.sbrk(-1)

    def test_brk_vma_tracked(self, aspace):
        aspace.sbrk(PAGE_4K * 3)
        vma = aspace.find_vma(BRK_BASE)
        assert vma is not None
        assert vma.kind == "brk"
        assert vma.length == 3 * PAGE_4K


class TestLifecycle:
    def test_destroy_releases_everything(self, aspace, machine_mem):
        pm, fs = machine_mem
        small_before = pm.free_small_frames
        huge_before = fs.free_pages
        aspace.mmap(8 * PAGE_4K)
        aspace.mmap(2 * PAGE_2M, page_size=PAGE_2M)
        aspace.sbrk(5 * PAGE_4K)
        aspace.destroy()
        assert pm.free_small_frames == small_before
        assert fs.free_pages == huge_before
        assert aspace.vmas == []

    def test_find_vma(self, aspace):
        vma = aspace.mmap(PAGE_4K)
        assert aspace.find_vma(vma.start) is vma
        assert aspace.find_vma(vma.start + PAGE_4K) is not vma


class TestAtomicity:
    """A refused map or unmap leaves the address space and the frame
    pools exactly as they were."""

    def test_refused_mmap_returns_its_frames(self, aspace, machine_mem):
        pm, _ = machine_mem
        # squat on the page the next anonymous mapping will end with
        squat = aspace._mmap_cursor - PAGE_4K
        aspace.page_table.map(squat, pm.alloc_frame(), PAGE_4K)
        before = pm.free_small_frames
        with pytest.raises(ValueError, match="already mapped"):
            aspace.mmap(4 * PAGE_4K)
        assert pm.free_small_frames == before
        assert aspace.page_table.n_small == 1
        assert aspace.vmas == []

    def test_refused_huge_mmap_returns_its_frames(self, aspace, machine_mem):
        pm, fs = machine_mem
        aspace.page_table.map(aspace._huge_cursor + PAGE_4K,
                              pm.alloc_frame(), PAGE_4K)
        before = pm.free_hugepages
        with pytest.raises(ValueError, match="overlaps"):
            aspace.mmap(PAGE_2M, page_size=PAGE_2M)
        assert pm.free_hugepages == before
        assert fs.acquired_pages == 0
        assert aspace.page_table.n_huge == 0

    def test_munmap_with_pinned_page_changes_nothing(self, aspace, machine_mem):
        pm, _ = machine_mem
        vma = aspace.mmap(8 * PAGE_4K)
        aspace.page_table.lookup(vma.start + 5 * PAGE_4K).pin_count += 1
        before = pm.free_small_frames
        with pytest.raises(ValueError, match="pinned"):
            aspace.munmap(vma.start)
        assert pm.free_small_frames == before
        assert aspace.page_table.n_small == 8
        assert aspace.vmas == [vma]
        for off in range(0, vma.length, PAGE_4K):
            assert aspace.page_table.is_mapped(vma.start + off)

    def test_sbrk_shrink_over_pinned_page_changes_nothing(self, aspace, machine_mem):
        pm, _ = machine_mem
        aspace.sbrk(8 * PAGE_4K)
        aspace.page_table.lookup(BRK_BASE + 6 * PAGE_4K).pin_count += 1
        before = pm.free_small_frames
        with pytest.raises(ValueError, match="pinned"):
            aspace.sbrk(-4 * PAGE_4K)
        assert pm.free_small_frames == before
        assert aspace.page_table.n_small == 8
        for off in range(0, 8 * PAGE_4K, PAGE_4K):
            assert aspace.page_table.is_mapped(BRK_BASE + off)

    def test_heap_growth_stays_one_run(self, aspace):
        for _ in range(5):
            aspace.sbrk(3 * PAGE_4K + 100)
        assert aspace.translation_run(BRK_BASE, aspace.brk - BRK_BASE) is not None
