"""Unit tests for physical memory frame pools (repro.mem.physical)."""

import pytest

from repro.mem import physical
from repro.mem.physical import (
    FRAMES_PER_HUGEPAGE,
    PAGE_2M,
    PAGE_4K,
    OutOfMemoryError,
    PhysicalMemory,
    align_down,
    align_up,
    is_aligned,
)

MB = 1024 * 1024


class TestAlignmentHelpers:
    def test_is_aligned(self):
        assert is_aligned(8192, PAGE_4K)
        assert not is_aligned(8193, PAGE_4K)

    def test_align_up(self):
        assert align_up(1, PAGE_4K) == PAGE_4K
        assert align_up(PAGE_4K, PAGE_4K) == PAGE_4K
        assert align_up(PAGE_4K + 1, PAGE_4K) == 2 * PAGE_4K

    def test_align_down(self):
        assert align_down(PAGE_4K - 1, PAGE_4K) == 0
        assert align_down(PAGE_4K, PAGE_4K) == PAGE_4K


class TestConstruction:
    def test_basic(self):
        pm = PhysicalMemory(64 * MB, hugepages=4)
        assert pm.total_hugepages == 4
        assert pm.free_hugepages == 4
        assert pm.free_small_frames == (64 * MB - 4 * PAGE_2M) // PAGE_4K

    def test_unaligned_total_rejected(self):
        with pytest.raises(ValueError):
            PhysicalMemory(64 * MB + 1)

    def test_hugepool_must_fit(self):
        with pytest.raises(ValueError):
            PhysicalMemory(8 * MB, hugepages=4)

    def test_fragmentation_bounds(self):
        with pytest.raises(ValueError):
            PhysicalMemory(64 * MB, fragmentation=1.5)


class TestSmallFrames:
    def test_alloc_free_roundtrip(self):
        pm = PhysicalMemory(16 * MB)
        before = pm.free_small_frames
        f = pm.alloc_frame()
        assert pm.free_small_frames == before - 1
        pm.free_frame(f)
        assert pm.free_small_frames == before

    def test_frames_are_unique(self):
        pm = PhysicalMemory(16 * MB)
        frames = {pm.alloc_frame() for _ in range(100)}
        assert len(frames) == 100

    def test_frames_are_page_aligned(self):
        pm = PhysicalMemory(16 * MB)
        for _ in range(50):
            assert pm.alloc_frame() % PAGE_4K == 0

    def test_exhaustion(self):
        pm = PhysicalMemory(2 * MB)
        for _ in range(pm.free_small_frames):
            pm.alloc_frame()
        with pytest.raises(OutOfMemoryError):
            pm.alloc_frame()

    def test_fragmented_pool_is_scattered(self):
        pm = PhysicalMemory(64 * MB, fragmentation=1.0, seed=1)
        frames = [pm.alloc_frame() for _ in range(64)]
        adjacent = sum(
            1 for a, b in zip(frames, frames[1:]) if b == a + PAGE_4K
        )
        assert adjacent < 16  # mostly non-contiguous

    def test_unfragmented_pool_is_sequential(self):
        pm = PhysicalMemory(64 * MB, fragmentation=0.0)
        frames = [pm.alloc_frame() for _ in range(64)]
        adjacent = sum(
            1 for a, b in zip(frames, frames[1:]) if b == a + PAGE_4K
        )
        assert adjacent == 63

    def test_free_rejects_hugepool_address(self):
        pm = PhysicalMemory(64 * MB, hugepages=4)
        huge = pm.alloc_hugepage()
        with pytest.raises(ValueError):
            pm.free_frame(huge)

    def test_deterministic_given_seed(self):
        a = PhysicalMemory(64 * MB, seed=7)
        b = PhysicalMemory(64 * MB, seed=7)
        assert [a.alloc_frame() for _ in range(32)] == [
            b.alloc_frame() for _ in range(32)
        ]


class TestHugepages:
    def test_alloc_free_roundtrip(self):
        pm = PhysicalMemory(64 * MB, hugepages=4)
        h = pm.alloc_hugepage()
        assert h % PAGE_2M == 0
        assert pm.contains_hugepage(h)
        pm.free_hugepage(h)
        assert pm.free_hugepages == 4

    def test_exhaustion(self):
        pm = PhysicalMemory(64 * MB, hugepages=2)
        pm.alloc_hugepage()
        pm.alloc_hugepage()
        with pytest.raises(OutOfMemoryError):
            pm.alloc_hugepage()

    def test_free_rejects_small_address(self):
        pm = PhysicalMemory(64 * MB, hugepages=2)
        with pytest.raises(ValueError):
            pm.free_hugepage(0)

    def test_hugepages_physically_contiguous_inside(self):
        # a hugepage is one frame: its 512 4K-sub-frames are contiguous by
        # construction; verify the constant used elsewhere
        assert FRAMES_PER_HUGEPAGE == 512


class TestWindowMemo:
    """Fresh pools share their shuffled windows through a capped memo;
    the memo must never change what a pool hands out."""

    N_FRAMES = 3 * 4096 + 100  # crosses three window refills

    @pytest.fixture(autouse=True)
    def _cold_memo(self, monkeypatch):
        monkeypatch.setattr(physical, "_WINDOW_MEMO", {})

    @staticmethod
    def _pool(seed=11):
        return PhysicalMemory(64 * MB, hugepages=2, fragmentation=0.8, seed=seed)

    def _unmemoised(self, monkeypatch, fn):
        """Run *fn* with the memo switched off (empty, zero capacity)."""
        with monkeypatch.context() as m:
            m.setattr(physical, "_WINDOW_MEMO", {})
            m.setattr(physical, "_WINDOW_MEMO_MAX", 0)
            return fn()

    def test_cold_and_warm_pools_hand_out_the_same_frames(self, monkeypatch):
        cold_pool = self._pool()
        cold = cold_pool.alloc_frames(self.N_FRAMES).tolist()
        assert physical._WINDOW_MEMO  # the cold pool filled it
        warm_pool = self._pool()
        warm = warm_pool.alloc_frames(self.N_FRAMES).tolist()
        plain = self._unmemoised(
            monkeypatch, lambda: self._pool().alloc_frames(self.N_FRAMES).tolist())
        assert cold == warm == plain
        # the warm pool's RNG and snapshot are what drawing would leave
        assert warm_pool.dump_state() == cold_pool.dump_state()

    def test_memo_keys_on_seed(self):
        a = self._pool(seed=1).alloc_frames(4096).tolist()
        b = self._pool(seed=2).alloc_frames(4096).tolist()
        assert a != b

    def test_memo_windows_are_read_only(self):
        self._pool().alloc_frames(10)
        for window, _state in physical._WINDOW_MEMO.values():
            with pytest.raises(ValueError):
                window[0] = 0

    def test_memo_never_grows_past_its_cap(self, monkeypatch):
        monkeypatch.setattr(physical, "_WINDOW_MEMO_MAX", 2)
        frames = self._pool().alloc_frames(self.N_FRAMES).tolist()
        assert len(physical._WINDOW_MEMO) == 2
        again = self._pool().alloc_frames(self.N_FRAMES).tolist()
        assert len(physical._WINDOW_MEMO) == 2
        assert again == frames
