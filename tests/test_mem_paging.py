"""Unit tests for page tables (repro.mem.paging)."""

import pytest

from repro.mem.paging import PageTable, TranslationFault
from repro.mem.physical import PAGE_2M, PAGE_4K


@pytest.fixture
def pt():
    return PageTable()


class TestMapping:
    def test_map_and_translate_4k(self, pt):
        pt.map(0x1000, 0x20000, PAGE_4K)
        paddr, size = pt.translate(0x1234)
        assert paddr == 0x20234
        assert size == PAGE_4K

    def test_map_and_translate_2m(self, pt):
        pt.map(0, 0x200000, PAGE_2M)
        paddr, size = pt.translate(0x12345)
        assert paddr == 0x200000 + 0x12345
        assert size == PAGE_2M

    def test_unaligned_rejected(self, pt):
        with pytest.raises(ValueError):
            pt.map(0x1001, 0x2000, PAGE_4K)
        with pytest.raises(ValueError):
            pt.map(0x1000, 0x2001, PAGE_4K)

    def test_double_map_rejected(self, pt):
        pt.map(0x1000, 0x2000, PAGE_4K)
        with pytest.raises(ValueError):
            pt.map(0x1000, 0x3000, PAGE_4K)

    def test_bad_page_size_rejected(self, pt):
        with pytest.raises(ValueError):
            pt.map(0, 0, 8192)

    def test_huge_overlapping_small_rejected(self, pt):
        pt.map(0x1000, 0x2000, PAGE_4K)
        with pytest.raises(ValueError):
            pt.map(0, 0x200000, PAGE_2M)

    def test_counts(self, pt):
        pt.map(0x1000, 0x2000, PAGE_4K)
        pt.map(0x200000, 0x400000, PAGE_2M)
        assert pt.n_small == 1
        assert pt.n_huge == 1


class TestLookup:
    def test_fault_on_unmapped(self, pt):
        with pytest.raises(TranslationFault):
            pt.lookup(0xDEAD000)

    def test_try_lookup_returns_none(self, pt):
        assert pt.try_lookup(0xDEAD000) is None

    def test_is_mapped(self, pt):
        pt.map(0x1000, 0x2000, PAGE_4K)
        assert pt.is_mapped(0x1FFF)
        assert not pt.is_mapped(0x2000)

    def test_hugepage_wins_at_same_region(self, pt):
        pt.map(0x200000, 0x400000, PAGE_2M)
        entry = pt.lookup(0x200000 + 0x1000)
        assert entry.page_size == PAGE_2M

    def test_walk_levels(self, pt):
        pt.map(0x1000, 0x2000, PAGE_4K)
        pt.map(0x200000, 0x400000, PAGE_2M)
        assert pt.walk_levels(0x1000) == 4
        assert pt.walk_levels(0x200000) == 3


class TestUnmap:
    def test_unmap(self, pt):
        pt.map(0x1000, 0x2000, PAGE_4K)
        entry = pt.unmap(0x1000, PAGE_4K)
        assert entry.paddr == 0x2000
        assert not pt.is_mapped(0x1000)

    def test_unmap_missing_faults(self, pt):
        with pytest.raises(TranslationFault):
            pt.unmap(0x1000, PAGE_4K)

    def test_pinned_page_cannot_be_unmapped(self, pt):
        entry = pt.map(0x1000, 0x2000, PAGE_4K)
        entry.pin_count += 1
        with pytest.raises(ValueError):
            pt.unmap(0x1000, PAGE_4K)
        entry.pin_count -= 1
        pt.unmap(0x1000, PAGE_4K)


class TestRangeIteration:
    def test_pages_in_range_4k(self, pt):
        for i in range(4):
            pt.map(0x1000 + i * PAGE_4K, 0x10000 + i * PAGE_4K, PAGE_4K)
        entries = list(pt.pages_in_range(0x1800, 2 * PAGE_4K))
        assert [e.vaddr for e in entries] == [0x1000, 0x2000, 0x3000]

    def test_pages_in_range_mixed_fault(self, pt):
        pt.map(0x1000, 0x2000, PAGE_4K)
        with pytest.raises(TranslationFault):
            list(pt.pages_in_range(0x1000, 3 * PAGE_4K))

    def test_pages_in_range_huge(self, pt):
        pt.map(0x200000, 0x400000, PAGE_2M)
        pt.map(0x400000, 0x800000, PAGE_2M)
        entries = list(pt.pages_in_range(0x200000 + 5, PAGE_2M))
        assert [e.vaddr for e in entries] == [0x200000, 0x400000]

    def test_non_positive_length_rejected(self, pt):
        pt.map(0x1000, 0x2000, PAGE_4K)
        with pytest.raises(ValueError):
            list(pt.pages_in_range(0x1000, 0))


class TestBulkMap:
    def test_refused_bulk_map_installs_nothing(self, pt):
        pt.map(0x2000, 0x9000, PAGE_4K)
        with pytest.raises(ValueError, match="0x2000 is already mapped"):
            pt.bulk_map(0, [0x10000, 0x11000, 0x12000, 0x13000], PAGE_4K)
        assert pt.n_small == 1
        assert [e.vaddr for e in pt.entries()] == [0x2000]
        assert not pt.is_mapped(0) and not pt.is_mapped(0x1000)

    def test_first_unaligned_frame_reported(self, pt):
        with pytest.raises(ValueError, match="0x1000 -> 0x11001"):
            pt.bulk_map(0, [0x10000, 0x11001], PAGE_4K)
        assert pt.n_small == 0

    def test_adjacent_runs_merge(self, pt):
        pt.bulk_map(0, [0x10000, 0x11000], PAGE_4K)
        pt.bulk_map(0x2000, [0x12000], PAGE_4K)
        run, first, last = pt.run_for(0, 3 * PAGE_4K)
        assert (first, last) == (0, 2)
        assert run.restarts(first, last) == 1

    def test_unmap_range_splits_run(self, pt):
        pt.bulk_map(0, [0x10000, 0x30000, 0x11000, 0x12000], PAGE_4K)
        freed = pt.unmap_range(0x1000, 2 * PAGE_4K, PAGE_4K)
        assert freed.tolist() == [0x30000, 0x11000]
        assert [(e.vaddr, e.paddr) for e in pt.entries()] == [
            (0, 0x10000), (0x3000, 0x12000)]
        assert pt.n_small == 2

    def test_unmap_range_with_hole_faults_atomically(self, pt):
        pt.bulk_map(0, [0x10000, 0x11000], PAGE_4K)
        with pytest.raises(TranslationFault):
            pt.unmap_range(0, 3 * PAGE_4K, PAGE_4K)
        assert pt.n_small == 2


class TestDumpState:
    def test_leaves_match_the_entries(self, pt):
        pt.bulk_map(0, [0x10000, 0x11000], PAGE_4K)
        pt.bulk_map(0x4000, [0x20000], PAGE_4K)
        pt.map(0x400000, 0x800000, PAGE_2M)
        pt.lookup(0x1000).pin_count = 2
        pt.lookup(0x400000).cow = True
        state = pt.dump_state()
        assert state == {
            "small": [(0, 0x10000, 0, False), (0x1000, 0x11000, 2, False),
                      (0x4000, 0x20000, 0, False)],
            "huge": [(0x400000, 0x800000, 0, True)],
        }
        assert all(type(v) is int for t in state["small"] for v in t[:3])
        assert [(e.vaddr, e.paddr, e.pin_count, e.cow) for e in pt.entries()] \
            == state["small"] + state["huge"]
