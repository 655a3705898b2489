"""Tests for memory registration (repro.ib.registration + driver)."""

import pytest

from repro.ib.att import ATTCache, ATTConfig
from repro.ib.driver import OpenIBDriver
from repro.ib.registration import RegistrationEngine
from repro.ib.verbs import IBVerbsError, ProtectionDomain
from repro.mem import AddressSpace, HugeTLBfs, PAGE_2M, PAGE_4K, PhysicalMemory

MB = 1024 * 1024


@pytest.fixture
def aspace():
    pm = PhysicalMemory(1024 * MB, hugepages=64)
    return AddressSpace(pm, HugeTLBfs(pm))


def make_engine(hugepage_aware: bool):
    att = ATTCache(ATTConfig())
    return RegistrationEngine(OpenIBDriver(hugepage_aware), att), att


class TestDriverPlanning:
    def test_stock_driver_expands_hugepages(self, aspace):
        """'The OpenIB stack is not able to detect hugepages as the
        kernel pretends 4 KB pages instead' (§5)."""
        driver = OpenIBDriver(hugepage_aware=False)
        vma = aspace.mmap(4 * MB, page_size=PAGE_2M)
        pages = list(aspace.page_table.pages_in_range(vma.start, 4 * MB))
        size, n = driver.plan_entries(pages)
        assert size == PAGE_4K
        assert n == 1024

    def test_patched_driver_uses_hugepage_entries(self, aspace):
        driver = OpenIBDriver(hugepage_aware=True)
        vma = aspace.mmap(4 * MB, page_size=PAGE_2M)
        pages = list(aspace.page_table.pages_in_range(vma.start, 4 * MB))
        size, n = driver.plan_entries(pages)
        assert size == PAGE_2M
        assert n == 2

    def test_mixed_range_falls_back(self, aspace):
        driver = OpenIBDriver(hugepage_aware=True)
        small = aspace.mmap(2 * PAGE_4K)
        pages = list(aspace.page_table.pages_in_range(small.start, 2 * PAGE_4K))
        size, n = driver.plan_entries(pages)
        assert size == PAGE_4K and n == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            OpenIBDriver().plan_entries([])


class TestRegistration:
    def test_three_steps_pin_pages(self, aspace):
        engine, _ = make_engine(True)
        vma = aspace.mmap(8 * PAGE_4K)
        mr, ns = engine.register(aspace, ProtectionDomain.fresh(), vma.start,
                                 8 * PAGE_4K)
        assert ns > 0
        for entry in aspace.page_table.pages_in_range(vma.start, 8 * PAGE_4K):
            assert entry.pin_count == 1

    def test_pinned_pages_block_munmap(self, aspace):
        engine, _ = make_engine(True)
        vma = aspace.mmap(PAGE_4K)
        engine.register(aspace, ProtectionDomain.fresh(), vma.start, PAGE_4K)
        with pytest.raises(ValueError):
            aspace.munmap(vma.start)

    def test_deregister_unpins(self, aspace):
        engine, _ = make_engine(True)
        vma = aspace.mmap(PAGE_4K)
        mr, _ = engine.register(aspace, ProtectionDomain.fresh(), vma.start, PAGE_4K)
        engine.deregister(aspace, mr)
        aspace.munmap(vma.start)  # now allowed

    def test_double_deregister_rejected(self, aspace):
        engine, _ = make_engine(True)
        vma = aspace.mmap(PAGE_4K)
        mr, _ = engine.register(aspace, ProtectionDomain.fresh(), vma.start, PAGE_4K)
        engine.deregister(aspace, mr)
        with pytest.raises(IBVerbsError):
            engine.deregister(aspace, mr)

    def test_invalid_length(self, aspace):
        engine, _ = make_engine(True)
        with pytest.raises(IBVerbsError):
            engine.register(aspace, ProtectionDomain.fresh(), 0x1000, 0)

    def test_dereg_invalidates_att(self, aspace):
        engine, att = make_engine(True)
        vma = aspace.mmap(PAGE_4K)
        mr, _ = engine.register(aspace, ProtectionDomain.fresh(), vma.start, PAGE_4K)
        att.access(mr.mr_id, 0)
        engine.deregister(aspace, mr)
        assert att.resident == 0


class TestRegistrationCostShape:
    """The §5.1 headline: hugepage registration "down to 1 % of the time
    as with small pages" for large buffers."""

    def test_cost_scales_with_pages(self, aspace):
        engine, _ = make_engine(True)
        pd = ProtectionDomain.fresh()
        a = aspace.mmap(1 * MB)
        b = aspace.mmap(8 * MB)
        _, ns_a = engine.register(aspace, pd, a.start, 1 * MB)
        _, ns_b = engine.register(aspace, pd, b.start, 8 * MB)
        assert ns_b > 4 * ns_a

    def test_hugepage_registration_near_one_percent(self, aspace):
        engine, _ = make_engine(True)
        pd = ProtectionDomain.fresh()
        small = aspace.mmap(16 * MB, page_size=PAGE_4K)
        huge = aspace.mmap(16 * MB, page_size=PAGE_2M)
        _, ns_small = engine.register(aspace, pd, small.start, 16 * MB)
        _, ns_huge = engine.register(aspace, pd, huge.start, 16 * MB)
        ratio = ns_huge / ns_small
        assert ratio < 0.03  # "down to 1 %" for large buffers

    def test_unaware_driver_keeps_upload_cost(self, aspace):
        """Without the paper's patch, hugepage buffers still upload 4 KB
        entries — registration stays cheaper (pinning) but not 100x."""
        aware, _ = make_engine(True)
        stock, _ = make_engine(False)
        pd = ProtectionDomain.fresh()
        a = aspace.mmap(16 * MB, page_size=PAGE_2M)
        b = aspace.mmap(16 * MB, page_size=PAGE_2M)
        _, ns_aware = aware.register(aspace, pd, a.start, 16 * MB)
        _, ns_stock = stock.register(aspace, pd, b.start, 16 * MB)
        assert ns_stock > 3 * ns_aware

    def test_era_magnitude(self, aspace):
        """~90 us/MB on base pages (the Mietke et al. measurements)."""
        engine, _ = make_engine(True)
        vma = aspace.mmap(4 * MB)
        _, ns = engine.register(aspace, ProtectionDomain.fresh(), vma.start, 4 * MB)
        us_per_mb = ns / 1000.0 / 4
        assert 40 < us_per_mb < 200

    def test_counters(self, aspace):
        engine, _ = make_engine(True)
        vma = aspace.mmap(4 * PAGE_4K)
        mr, _ = engine.register(aspace, ProtectionDomain.fresh(), vma.start,
                                4 * PAGE_4K)
        assert engine.counters["reg.register"] == 1
        assert engine.counters["reg.entries_uploaded"] == 4
        engine.deregister(aspace, mr)
        assert engine.counters["reg.deregister"] == 1


class TestMemoryRegionGeometry:
    def test_entries_for_range(self, aspace):
        engine, _ = make_engine(True)
        vma = aspace.mmap(4 * PAGE_4K)
        mr, _ = engine.register(aspace, ProtectionDomain.fresh(), vma.start,
                                4 * PAGE_4K)
        assert list(mr.entries_for(vma.start, PAGE_4K)) == [0]
        assert list(mr.entries_for(vma.start + PAGE_4K - 1, 2)) == [0, 1]
        assert len(list(mr.entries_for(vma.start, 4 * PAGE_4K))) == 4

    def test_contains(self, aspace):
        engine, _ = make_engine(True)
        vma = aspace.mmap(2 * PAGE_4K)
        mr, _ = engine.register(aspace, ProtectionDomain.fresh(), vma.start,
                                2 * PAGE_4K)
        assert mr.contains(vma.start, 2 * PAGE_4K)
        assert not mr.contains(vma.start, 2 * PAGE_4K + 1)

    def test_out_of_range_entry_rejected(self, aspace):
        engine, _ = make_engine(True)
        vma = aspace.mmap(PAGE_4K)
        mr, _ = engine.register(aspace, ProtectionDomain.fresh(), vma.start, PAGE_4K)
        with pytest.raises(IBVerbsError):
            mr.entry_index(vma.start - 1)
