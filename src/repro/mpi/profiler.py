"""mpiP-like profiling: per-call-site timing and the comm/compute split.

The paper obtains Fig 6's decomposition "by utilizing the mpiP library,
which is able to instrument MPI functions ... Thus, we are able to
distinguish between communication and computation time" (§5.2).  The
:class:`MPIProfiler` does the same for simulated ranks: every
communicator call records its elapsed ticks under its MPI function name;
application time is the rank's total wall ticks; computation time is the
difference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional


@dataclass
class CallRecord:
    """Aggregate stats of one MPI call site."""

    name: str
    calls: int = 0
    ticks: int = 0
    bytes_moved: int = 0

    def note(self, ticks: int, nbytes: int = 0) -> None:
        """Record one completed call."""
        self.calls += 1
        self.ticks += ticks
        self.bytes_moved += nbytes


class MPIProfiler:
    """Per-rank communication profiler."""

    def __init__(self, rank: int):
        self.rank = rank
        self.records: Dict[str, CallRecord] = {}
        self._app_start: Optional[int] = None
        self._app_end: Optional[int] = None

    # -- lifecycle ----------------------------------------------------------
    def app_started(self, now: int) -> None:
        """Mark application start (after MPI_Init-equivalent setup)."""
        self._app_start = now

    def app_ended(self, now: int) -> None:
        """Mark application end."""
        self._app_end = now

    # -- recording ---------------------------------------------------------------
    def record(self, name: str, ticks: int, nbytes: int = 0) -> None:
        """Record one MPI call's elapsed ticks."""
        if ticks < 0:
            raise ValueError(f"negative call duration {ticks}")
        rec = self.records.get(name)
        if rec is None:
            rec = self.records[name] = CallRecord(name)
        rec.note(ticks, nbytes)

    # -- results ---------------------------------------------------------------------
    @property
    def comm_ticks(self) -> int:
        """Total ticks inside MPI calls."""
        return sum(r.ticks for r in self.records.values())

    @property
    def app_ticks(self) -> int:
        """Wall ticks between app_started and app_ended."""
        if self._app_start is None or self._app_end is None:
            raise ValueError("profiler window was not closed")
        return self._app_end - self._app_start

    @property
    def compute_ticks(self) -> int:
        """Everything that is not MPI time."""
        return max(0, self.app_ticks - self.comm_ticks)

    def summary(self) -> Dict[str, CallRecord]:
        """Call records keyed by MPI function name."""
        return dict(self.records)
