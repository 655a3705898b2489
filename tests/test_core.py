"""Tests for the public core API (placement, library preload, SGE plans)."""

import pytest

from repro.alloc.hugepage_lib import HugepageLibraryConfig
from repro.core import (
    AggregationStrategy,
    BufferPlacer,
    PlacementConfig,
    PlacementPolicy,
    plan_aggregation,
    preload_hugepage_library,
)
from repro.engine import SimKernel
from repro.mem.physical import PAGE_2M, PAGE_4K
from repro.systems import Machine, presets

KB = 1024
MB = 1024 * 1024


@pytest.fixture
def proc():
    machine = Machine(SimKernel(), presets.opteron_infinihost_pcie())
    return machine.new_process()


class TestPlacementConfig:
    def test_defaults_follow_paper(self):
        cfg = PlacementConfig()
        assert cfg.small_buffer_offset == 64  # §4's sweet spot
        assert cfg.sge_aggregation_limit == 128  # §4's "up to 128 Byte"
        assert cfg.library.cutoff_bytes == 32 * KB

    def test_validation(self):
        with pytest.raises(ValueError):
            PlacementConfig(small_buffer_offset=5000)
        with pytest.raises(ValueError):
            PlacementConfig(sge_aggregation_limit=0)


class TestPreload:
    def test_preload_swaps_allocator(self, proc):
        handle = preload_hugepage_library(proc)
        assert proc.allocator is handle.allocator
        p = proc.malloc(1 * MB)
        assert handle.allocator.is_hugepage_backed(p)

    def test_preload_is_idempotent(self, proc):
        h1 = preload_hugepage_library(proc)
        h2 = preload_hugepage_library(proc)
        assert h1.allocator is h2.allocator

    def test_existing_allocations_still_freeable(self, proc):
        before = proc.malloc(1 * MB)  # via libc
        preload_hugepage_library(proc)
        proc.free(before)  # routed back to libc
        assert proc.libc.live_allocations == 0

    def test_custom_config(self, proc):
        handle = preload_hugepage_library(
            proc, HugepageLibraryConfig(cutoff_bytes=8 * KB)
        )
        assert handle.allocator.is_hugepage_backed(proc.malloc(8 * KB))


class TestBufferPlacer:
    def test_policies(self, proc):
        placer = BufferPlacer(proc)
        assert placer.place(1 * MB, PlacementPolicy.SMALL_PAGES).page_size == PAGE_4K
        assert placer.place(1 * KB, PlacementPolicy.HUGE_PAGES).page_size == PAGE_2M
        assert placer.place(32 * KB, PlacementPolicy.SIZE_BASED).page_size == PAGE_2M
        assert placer.place(31 * KB, PlacementPolicy.SIZE_BASED).page_size == PAGE_4K

    def test_default_offset_for_small_buffers(self, proc):
        placer = BufferPlacer(proc)
        buf = placer.place(64)
        assert buf.offset_in_page == 64

    def test_explicit_offset(self, proc):
        placer = BufferPlacer(proc)
        buf = placer.place(64, offset=96)
        assert buf.offset_in_page == 96

    def test_release(self, proc):
        placer = BufferPlacer(proc)
        buf = placer.place(4 * KB)
        placer.release(buf)
        assert placer.live_buffers == 0
        with pytest.raises(ValueError):
            placer.release(buf)

    def test_validation(self, proc):
        placer = BufferPlacer(proc)
        with pytest.raises(ValueError):
            placer.place(0)
        with pytest.raises(ValueError):
            placer.place(64, offset=4096)


class TestAggregationPlanner:
    def test_many_small_buffers_prefer_sge(self):
        plan = plan_aggregation([64] * 8)
        assert plan.strategy is AggregationStrategy.SGE_LIST

    def test_single_buffer_anything_but_separate_overhead(self):
        plan = plan_aggregation([64])
        # with one buffer all strategies collapse; separate==sge here
        assert plan.n_buffers == 1

    def test_sge_beats_separate_for_batches(self):
        plan = plan_aggregation([128] * 4)
        est = plan.estimated_ns
        assert est["sge"] < est["separate"]

    def test_cpu_pack_wins_for_very_cheap_copies(self):
        plan = plan_aggregation([16] * 4, copy_ns_per_byte=0.0001)
        assert plan.estimated_ns["pack"] < plan.estimated_ns["separate"]

    def test_max_sge_splits_batches(self):
        plan = plan_aggregation([32] * 300, max_sge=128)
        # 300 buffers -> 3 work requests in SGE mode; still beats 300
        assert plan.estimated_ns["sge"] < plan.estimated_ns["separate"]

    def test_validation(self):
        with pytest.raises(ValueError):
            plan_aggregation([])
        with pytest.raises(ValueError):
            plan_aggregation([0])

    def test_plan_matches_simulated_hca(self):
        """The planner's 'SGE beats separate sends' verdict must agree
        with the actual simulated verbs measurements."""
        from repro.workloads.verbs_micro import measure_send

        one = measure_send(sges=1, sge_size=64)
        four = measure_send(sges=4, sge_size=64)
        # four separate sends cost ~4x one; one 4-SGE request costs ~1.1x
        assert four.total_ticks < 2 * one.total_ticks
