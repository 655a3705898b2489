"""Unit tests for the analysis package (counters + report formatting)."""

import pytest

from repro.analysis import CounterSet, Table, format_series
from repro.analysis.report import percent_change


class TestCounterSet:
    def test_add_and_get(self):
        c = CounterSet()
        c.add("tlb.4k.miss")
        c.add("tlb.4k.miss", 4)
        assert c["tlb.4k.miss"] == 5
        assert c.get("unknown") == 0

    def test_negative_corrections(self):
        c = CounterSet()
        c.add("x", 10)
        c.add("x", -3)
        assert c["x"] == 7

    def test_group(self):
        c = CounterSet()
        c.add("tlb.4k.miss", 2)
        c.add("tlb.4k.hit", 5)
        c.add("tlb.2m.miss", 1)
        c.add("tlbx", 9)
        assert c.group("tlb.4k") == {"miss": 2, "hit": 5}
        assert c.group("tlb") == {"4k.miss": 2, "4k.hit": 5, "2m.miss": 1}

    def test_snapshot_diff(self):
        c = CounterSet()
        c.add("a", 5)
        snap = c.snapshot()
        c.add("a", 3)
        c.add("b", 1)
        assert c.diff(snap) == {"a": 3, "b": 1}

    def test_reset(self):
        c = CounterSet()
        c.add("a")
        c.reset()
        assert len(c) == 0

    def test_iteration_sorted(self):
        c = CounterSet()
        c.add("b")
        c.add("a")
        assert [name for name, _ in c] == ["a", "b"]

    def test_contains(self):
        c = CounterSet()
        c.add("x")
        assert "x" in c and "y" not in c


class TestTable:
    def test_render_contains_cells(self):
        t = Table(["size", "MB/s"], title="demo")
        t.add_row([1024, 812.5])
        out = t.render()
        assert "demo" in out
        assert "1024" in out
        assert "812.5" in out

    def test_row_length_validated(self):
        t = Table(["a", "b"])
        with pytest.raises(ValueError):
            t.add_row([1])

    def test_empty_columns_rejected(self):
        with pytest.raises(ValueError):
            Table([])

    def test_none_renders_dash(self):
        t = Table(["x"])
        t.add_row([None])
        assert "-" in t.render()

    def test_float_formatting(self):
        t = Table(["v"])
        t.add_row([12345.6])
        assert "12,346" in t.render()


class TestSeries:
    def test_format_series(self):
        out = format_series("curve", [1, 2], [10.0, 20.0], "x", "y")
        assert "# series: curve" in out
        assert out.count("\n") == 3

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            format_series("bad", [1], [1, 2])


class TestPercentChange:
    def test_improvement_positive(self):
        assert percent_change(100.0, 90.0) == pytest.approx(10.0)

    def test_regression_negative(self):
        assert percent_change(100.0, 110.0) == pytest.approx(-10.0)

    def test_zero_before_rejected(self):
        with pytest.raises(ValueError):
            percent_change(0.0, 1.0)
