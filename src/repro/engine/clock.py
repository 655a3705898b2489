"""Tick/time conversions.

The paper reports microbenchmark results in **time base register (TBR)
ticks** (a PowerPC register, read on the IBM System p machines).  All
simulated costs in this reproduction are integer tick counts; a
:class:`TickClock` fixes the tick frequency so results can also be reported
in nanoseconds or converted to bandwidths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

#: ns→ticks memo cap per tick frequency: figure runs use a small set of
#: distinct durations (fixed pipeline costs plus one value per message
#: size), so the cache stays tiny; the cap only guards pathological
#: workloads.
_MEMO_MAX = 4096

#: one ns→ticks memo per tick frequency, shared by every clock of that
#: frequency: the conversion depends on nothing else, and a fresh node's
#: clock would otherwise start cold
_MEMOS: Dict[float, dict] = {}


@dataclass(frozen=True)
class TickClock:
    """A fixed-frequency tick clock.

    Parameters
    ----------
    ticks_per_us:
        Tick frequency expressed as ticks per microsecond.  The System p
        time base runs at 1/8 the CPU clock; for a 1.65 GHz CPU that is
        ~206 ticks/us.  We default to a round 200 ticks/us so numbers are
        easy to eyeball; presets override it per machine.
    """

    ticks_per_us: float = 200.0
    #: ns→ticks memo shared per frequency (ns_to_ticks is the hottest
    #: call in the simulator and mostly sees the same handful of fixed
    #: costs)
    _memo: dict = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_memo",
                           _MEMOS.setdefault(self.ticks_per_us, {}))

    def ns_to_ticks(self, ns: float) -> int:
        """Convert nanoseconds to whole ticks (round half up, min 0)."""
        ticks = self._memo.get(ns)
        if ticks is not None:
            return ticks
        if ns < 0:
            raise ValueError(f"negative duration: {ns} ns")
        ticks = int(ns * self.ticks_per_us / 1000.0 + 0.5)
        if len(self._memo) < _MEMO_MAX:
            self._memo[ns] = ticks
        return ticks

    def us_to_ticks(self, us: float) -> int:
        """Convert microseconds to whole ticks."""
        return self.ns_to_ticks(us * 1000.0)

    def ticks_to_ns(self, ticks: int) -> float:
        """Convert ticks to nanoseconds."""
        if ticks < 0:
            raise ValueError(f"negative duration: {ticks} ticks")
        return ticks * 1000.0 / self.ticks_per_us

    def ticks_to_us(self, ticks: int) -> float:
        """Convert ticks to microseconds."""
        return self.ticks_to_ns(ticks) / 1000.0

    def bandwidth_mb_s(self, nbytes: int, ticks: int) -> float:
        """Bandwidth in MB/s (10^6 bytes/s, as IMB reports) for *nbytes*
        transferred in *ticks*."""
        if ticks <= 0:
            raise ValueError(f"non-positive duration: {ticks} ticks")
        seconds = self.ticks_to_ns(ticks) / 1e9
        return nbytes / 1e6 / seconds

    def ticks_for_bandwidth(self, nbytes: float, mb_s: float) -> int:
        """Ticks needed to move *nbytes* at *mb_s* MB/s (at least 1)."""
        if mb_s <= 0:
            raise ValueError(f"non-positive bandwidth: {mb_s} MB/s")
        ns = nbytes / (mb_s * 1e6) * 1e9
        return max(1, self.ns_to_ticks(ns))
