"""ASCII table / series formatting for benchmark output.

The benchmark harness prints the same rows and series the paper's tables
and figures report; this module provides the small formatting helpers.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Mapping, Optional, Sequence, Union

Cell = Union[str, int, float, None]


def _fmt(cell: Cell) -> str:
    if cell is None:
        return "-"
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 1000:
            return f"{cell:,.0f}"
        if abs(cell) >= 10:
            return f"{cell:.1f}"
        return f"{cell:.3f}"
    return str(cell)


class Table:
    """A fixed-column ASCII table.

    >>> t = Table(["size", "MB/s"], title="demo")
    >>> t.add_row([1024, 812.5])
    >>> print(t.render())  # doctest: +SKIP
    """

    def __init__(self, columns: Sequence[str],
                 title: Optional[str] = None) -> None:
        if not columns:
            raise ValueError("Table needs at least one column")
        self.columns = list(columns)
        self.title = title
        self.rows: List[List[str]] = []

    def add_row(self, cells: Iterable[Cell]) -> None:
        """Append a row; cell count must match the column count."""
        row = [_fmt(c) for c in cells]
        if len(row) != len(self.columns):
            raise ValueError(
                f"row has {len(row)} cells, table has {len(self.columns)} columns"
            )
        self.rows.append(row)

    def render(self) -> str:
        """Render the table as ASCII art."""
        widths = [len(c) for c in self.columns]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        sep = "+".join("-" * (w + 2) for w in widths)
        sep = f"+{sep}+"
        lines = []
        if self.title:
            lines.append(self.title)
        lines.append(sep)
        lines.append(
            "|" + "|".join(f" {c:<{w}} " for c, w in zip(self.columns, widths)) + "|"
        )
        lines.append(sep)
        for row in self.rows:
            lines.append(
                "|" + "|".join(f" {c:>{w}} " for c, w in zip(row, widths)) + "|"
            )
        lines.append(sep)
        return "\n".join(lines)


def format_series(
    name: str,
    xs: Sequence[Union[int, float]],
    ys: Sequence[Union[int, float]],
    x_label: str = "x",
    y_label: str = "y",
) -> str:
    """Format one figure series as aligned ``x y`` pairs (gnuplot-style)."""
    if len(xs) != len(ys):
        raise ValueError("xs and ys must have the same length")
    lines = [f"# series: {name}", f"# {x_label} {y_label}"]
    for x, y in zip(xs, ys):
        lines.append(f"{_fmt(x):>12} {_fmt(y):>14}")
    return "\n".join(lines)


def percent_change(before: float, after: float) -> float:
    """Improvement in percent going from *before* to *after* (positive =
    *after* is faster/smaller), as the paper reports it."""
    if before == 0:
        raise ValueError("before must be non-zero")
    return (before - after) / before * 100.0


#: how each fault counter is classified in the degradation report
_INJECTED_PREFIXES = ("faults.link.dropped", "faults.link.corrupted",
                      "faults.reg.", "faults.mem.")
_RECOVERED_PREFIXES = ("faults.qp.retries", "faults.qp.rnr_naks",
                       "faults.qp.duplicates", "faults.qp.stale_acks",
                       "faults.link.rejected", "faults.regcache.")
_ABORTED_PREFIXES = ("faults.qp.retry_exhausted", "faults.qp.flushed")


def degradation_report(counters: Mapping[str, int],
                       clock: Optional[Any] = None) -> str:
    """Summarize a run's fault/degradation counters as an ASCII report.

    *counters* is a dotted-name → value mapping (a ``CounterSet``
    snapshot or :meth:`~repro.systems.machine.Cluster.
    aggregate_counters` output).  Counters are grouped into what was
    *injected* (faults that fired), what was *recovered* (retransmitted,
    retried, deduplicated), what was *aborted* (errors surfaced to the
    application) and how placement *degraded* (hugepage → base-page
    fallbacks).  Pass the cluster's *clock* to render recovery latency
    in microseconds.
    """
    fault_items = {
        name: value for name, value in sorted(counters.items())
        if name.startswith("faults.") or ".fallback" in name
    }
    if not any(fault_items.values()):
        return "degradation: no faults injected, no degraded modes entered"

    def classify(name: str) -> str:
        if ".fallback" in name:
            return "degraded"
        for prefix in _ABORTED_PREFIXES:
            if name.startswith(prefix):
                return "aborted"
        for prefix in _RECOVERED_PREFIXES:
            if name.startswith(prefix):
                return "recovered"
        for prefix in _INJECTED_PREFIXES:
            if name.startswith(prefix):
                return "injected"
        return "injected"

    table = Table(["class", "counter", "count"], title="degradation report")
    for phase in ("injected", "recovered", "aborted", "degraded"):
        for name, value in fault_items.items():
            if name == "faults.qp.recovery_ticks" or not value:
                continue
            if classify(name) == phase:
                table.add_row([phase, name, value])
    lines = [table.render()]
    recovery = fault_items.get("faults.qp.recovery_ticks", 0)
    retries = fault_items.get("faults.qp.retries", 0)
    if recovery and retries:
        if clock is not None:
            lines.append(
                f"recovery latency: {clock.ticks_to_us(recovery):.1f} us "
                f"total across {retries} retransmissions "
                f"({clock.ticks_to_us(recovery) / retries:.1f} us each)"
            )
        else:
            lines.append(
                f"recovery latency: {recovery} ticks total across "
                f"{retries} retransmissions"
            )
    aborted = sum(v for n, v in fault_items.items()
                  if classify(n) == "aborted")
    if aborted:
        lines.append(
            f"WARNING: {aborted} operation(s) aborted with error "
            "completions (retry budget exhausted or queue flushed)"
        )
    return "\n".join(lines)
