"""Data cache and hardware prefetcher model.

The paper attributes part of the hugepage computation-time benefit to the
hardware prefetcher: "Maybe, the memory prefetching unit can benefit from
larger physical contiguous areas" (§5.2).  Prefetchers of the era
(Opteron, Xeon, POWER5) track streams of *physical* cache-line addresses
and stop at page boundaries, because the next virtual page's frame is not
physically adjacent.  A 2 MB hugepage gives the prefetcher 512× longer
runways.

Two pieces:

- :class:`DataCache` — a stateful LRU line cache used for exact costing of
  small accesses (verbs-level benchmarks, allocator metadata walks).
- :class:`Prefetcher` — stream-table bookkeeping plus analytic helpers the
  access engine uses to cost large streaming phases per page rather than
  per line.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.analysis.counters import CounterSet
from repro.fastpath import RunLRU


@dataclass(frozen=True)
class CacheConfig:
    """Cache geometry and per-access costs (nanoseconds).

    Attributes
    ----------
    line_size: cache line size in bytes.
    capacity_bytes: total cache capacity (modelled fully associative).
    hit_ns: cost of a cache hit.
    miss_ns: cost of a demand miss served from DRAM.
    prefetch_hit_ns: cost of a miss whose line was prefetched in time.
    stream_restart_lines: demand misses paid at full cost each time the
        prefetcher loses its stream (a physical discontinuity, i.e. a page
        boundary onto a non-adjacent frame).
    """

    line_size: int = 64
    capacity_bytes: int = 1024 * 1024
    hit_ns: float = 2.0
    miss_ns: float = 80.0
    prefetch_hit_ns: float = 12.0
    stream_restart_lines: int = 1

    def __post_init__(self) -> None:
        if self.line_size < 1:
            raise ValueError("cache line size must be positive")
        if self.capacity_bytes < self.line_size:
            raise ValueError("cache capacity must hold at least one line")

    @property
    def capacity_lines(self) -> int:
        """Capacity expressed in lines."""
        return self.capacity_bytes // self.line_size


class DataCache:
    """Fully-associative LRU line cache (exact, stateful)."""

    def __init__(self, config: CacheConfig, counters: Optional[CounterSet] = None):
        self.config = config
        self.counters = counters if counters is not None else CounterSet()
        self._lines = RunLRU(config.capacity_lines)

    def access(self, paddr: int, write: bool = False) -> Tuple[bool, float]:
        """Access the line holding physical address *paddr*.

        Returns ``(hit, cost_ns)``.  Writes are modelled write-allocate.
        """
        if self._lines.access(paddr // self.config.line_size):
            self.counters.add("cache.hit")
            return True, self.config.hit_ns
        self.counters.add("cache.miss")
        return False, self.config.miss_ns

    def sweep(self, first_line: int, n_lines: int, write: bool = False) -> Tuple[int, int, float]:
        """Access *n_lines* consecutive cache lines in one call.

        Exactly equivalent to per-line :meth:`access` calls on physical
        addresses covering lines ``first_line .. first_line+n_lines-1``:
        identical hit/miss totals and counters, identical final LRU
        content and order.  Returns ``(hits, misses, cost_ns)``.
        """
        if n_lines <= 0:
            raise ValueError(f"n_lines must be positive, got {n_lines}")
        hits = self._lines.sweep(first_line, n_lines)
        misses = n_lines - hits
        if hits:
            self.counters.add("cache.hit", hits)
        if misses:
            self.counters.add("cache.miss", misses)
        return hits, misses, hits * self.config.hit_ns + misses * self.config.miss_ns

    def keys(self) -> List[int]:
        """Cached line numbers in LRU order, oldest first."""
        return self.dump_state()

    def flush(self) -> None:
        """Invalidate everything."""
        self._lines.clear()

    # -- snapshot view ------------------------------------------------------
    def dump_state(self) -> list:
        """Picklable snapshot: line keys in LRU order (oldest first)."""
        return [line for _, line in self._lines.keys()]


class Prefetcher:
    """Stream prefetcher: analytic costing of sequential physical runs.

    The central quantity is the cost of streaming *n_lines* cache lines
    through a physical region that is contiguous in runs of
    *lines_per_run* (64 lines for scattered 4 KB frames; 32768 lines for a
    2 MB hugepage; unbounded for a multi-hugepage range that happens to be
    physically adjacent).
    """

    def __init__(self, config: CacheConfig, counters: Optional[CounterSet] = None):
        self.config = config
        self.counters = counters if counters is not None else CounterSet()

    def stream_cost_ns(self, n_lines: int, n_restarts: int) -> float:
        """Cost of a stream of *n_lines* lines broken *n_restarts* times.

        Each restart pays ``stream_restart_lines`` demand misses at full
        DRAM cost before the prefetcher locks back on; all other lines hit
        prefetched data.
        """
        if n_lines < 0 or n_restarts < 0:
            raise ValueError("negative stream parameters")
        cfg = self.config
        restart_lines = min(n_lines, n_restarts * cfg.stream_restart_lines)
        prefetched = n_lines - restart_lines
        self.counters.add_many(
            (("prefetch.lines", prefetched), ("prefetch.restarts", n_restarts))
        )
        return restart_lines * cfg.miss_ns + prefetched * cfg.prefetch_hit_ns

    def lines_for(self, nbytes: int) -> int:
        """Cache lines touched by *nbytes* of sequential data."""
        if nbytes < 0:
            raise ValueError(f"negative byte count {nbytes}")
        return (nbytes + self.config.line_size - 1) // self.config.line_size
