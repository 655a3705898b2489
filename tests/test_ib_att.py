"""Unit tests for the ATT cache (repro.ib.att)."""

import pytest

from repro.analysis import CounterSet
from repro.ib.att import ATTCache, ATTConfig


@pytest.fixture
def att():
    return ATTCache(ATTConfig(entries=4, fetch_ns=100.0))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ATTConfig(entries=0)
        with pytest.raises(ValueError):
            ATTConfig(fetch_ns=-1.0)


class TestAccess:
    def test_miss_then_hit(self, att):
        hit, ns = att.access(1, 0)
        assert not hit and ns == 100.0
        hit, ns = att.access(1, 0)
        assert hit and ns == 0.0

    def test_distinct_regions_distinct_entries(self, att):
        att.access(1, 0)
        hit, _ = att.access(2, 0)
        assert not hit

    def test_lru_eviction(self, att):
        for i in range(4):
            att.access(1, i)
        att.access(1, 0)  # refresh entry 0
        att.access(1, 99)  # evicts entry 1
        assert att.access(1, 0)[0] is True
        assert att.access(1, 1)[0] is False

    def test_counters(self):
        counters = CounterSet()
        att = ATTCache(ATTConfig(), counters)
        att.access(1, 0)
        att.access(1, 0)
        assert counters["att.miss"] == 1
        assert counters["att.hit"] == 1


class TestStreamStall:
    """A sequential stream's stall is ``misses * fetch_ns`` of its
    :meth:`~repro.ib.att.ATTCache.sweep_range`."""

    @staticmethod
    def _stall(att, mr_id, first, n):
        _, misses = att.sweep_range(mr_id, first, n)
        return misses * att.config.fetch_ns

    def test_cold_stream_all_misses(self, att):
        assert self._stall(att, 1, 0, 3) == 300.0

    def test_warm_small_stream_free(self, att):
        self._stall(att, 1, 0, 3)
        assert self._stall(att, 1, 0, 3) == 0.0

    def test_large_stream_thrashes(self, att):
        """More entries than the cache holds: every pass re-misses —
        the 4 KB-translation behaviour behind the Xeon result."""
        self._stall(att, 1, 0, 100)
        assert self._stall(att, 1, 0, 100) == 100 * 100.0

    def test_negative_rejected(self, att):
        with pytest.raises(ValueError):
            att.sweep_range(1, 0, -1)
        with pytest.raises(ValueError):
            att.sweep_range(1, 0, 0)


class TestInvalidation:
    def test_invalidate_region(self, att):
        att.access(1, 0)
        att.access(1, 1)
        att.access(2, 0)
        dropped = att.invalidate_region(1)
        assert dropped == 2
        assert att.resident == 1
        assert att.access(2, 0)[0] is True

    def test_flush(self, att):
        att.access(1, 0)
        att.flush()
        assert att.resident == 0
