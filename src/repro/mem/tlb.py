"""Split TLB model.

Processors of the paper's era keep *separate* TLB entry arrays per page
size; the AMD Opteron that dominates the evaluation has a large array for
4 KB pages (the paper quotes 544 entries = 32 L1 + 512 L2) but only **8**
entries for 2 MB pages.  This asymmetry is the root of the paper's §5.2
observation that hugepages *increase* TLB miss counts (up to 8× for EP):
code that rotates across more than 8 distinct hugepage-backed regions
thrashes the tiny hugepage array, while the same rotation fits easily in
544 base-page entries.

Both a stateful exact model (:class:`SplitTLB`, LRU, used for small access
counts and unit tests) and analytic steady-state helpers (used by the
access engine for phase-level costing of millions of accesses) live here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.analysis.counters import CounterSet
from repro.fastpath import RunLRU
from repro.mem.physical import PAGE_2M, PAGE_4K, align_down


@dataclass(frozen=True)
class TLBConfig:
    """TLB geometry and cost parameters.

    Attributes
    ----------
    entries_4k / entries_2m:
        Fully-associative LRU entry counts per page size.
    walk_ns_per_level:
        Cost of one radix level of a page walk, in nanoseconds (misses on
        2 MB pages walk one level less — see
        :attr:`repro.mem.paging.PageTable.WALK_LEVELS`).
    """

    entries_4k: int = 544
    entries_2m: int = 8
    walk_ns_per_level: float = 10.0
    #: a 2 MB-page walk is one level shorter *and* its upper levels stay
    #: resident in the paging-structure caches, so each (frequent) miss is
    #: cheap — the mechanism behind the paper's finding that the inflated
    #: hugepage miss counts "are not responsible for less application
    #: time" (§5.2)
    walk_2m_ns: float = 6.0

    def __post_init__(self) -> None:
        if self.entries_4k < 1 or self.entries_2m < 1:
            raise ValueError("each TLB array needs at least one entry")

    def entries_for(self, page_size: int) -> int:
        """Entry count of the array serving *page_size*."""
        if page_size == PAGE_4K:
            return self.entries_4k
        if page_size == PAGE_2M:
            return self.entries_2m
        raise ValueError(f"unsupported page size {page_size}")

    def walk_ns(self, page_size: int) -> float:
        """Full page-walk cost for a miss on *page_size*."""
        if page_size == PAGE_2M:
            return self.walk_2m_ns
        return 4 * self.walk_ns_per_level

    @property
    def coverage_4k(self) -> int:
        """Bytes covered by a full 4 KB array."""
        return self.entries_4k * PAGE_4K

    @property
    def coverage_2m(self) -> int:
        """Bytes covered by a full 2 MB array."""
        return self.entries_2m * PAGE_2M


class SplitTLB:
    """Stateful fully-associative LRU TLB with per-page-size arrays."""

    #: counter names per page size, precomputed so the hot translation
    #: path never rebuilds (and re-hashes) f-strings
    _HIT_NAMES = {PAGE_4K: "tlb.4k.hit", PAGE_2M: "tlb.2m.hit"}
    _MISS_NAMES = {PAGE_4K: "tlb.4k.miss", PAGE_2M: "tlb.2m.miss"}

    def __init__(self, config: TLBConfig, counters: Optional[CounterSet] = None):
        self.config = config
        self.counters = counters if counters is not None else CounterSet()
        self._arrays = {
            PAGE_4K: RunLRU(config.entries_4k, PAGE_4K),
            PAGE_2M: RunLRU(config.entries_2m, PAGE_2M),
        }

    def access(self, vaddr: int, page_size: int) -> Tuple[bool, float]:
        """Translate one access; returns ``(hit, extra_ns)``.

        A hit costs nothing extra; a miss costs a page walk and installs
        the translation, evicting LRU if the array is full.
        """
        if self._arrays[page_size].access(align_down(vaddr, page_size)):
            self.counters.add(self._HIT_NAMES[page_size])
            return True, 0.0
        self.counters.add(self._MISS_NAMES[page_size])
        return False, self.config.walk_ns(page_size)

    def sweep(self, vbase: int, n_pages: int, page_size: int) -> Tuple[int, int, float]:
        """Translate a sequential sweep over *n_pages* pages in one call.

        Exactly equivalent to ``n_pages`` consecutive :meth:`access`
        calls on ``vbase, vbase + page_size, ...`` (*vbase* must be
        page-aligned): identical hit/miss totals and counters, identical
        final array content and LRU order.  Returns
        ``(hits, misses, walk_ns_total)``.
        """
        if n_pages <= 0:
            raise ValueError(f"n_pages must be positive, got {n_pages}")
        if vbase % page_size:
            raise ValueError(f"unaligned sweep base {vbase:#x}")
        hits = self._arrays[page_size].sweep(vbase, n_pages)
        misses = n_pages - hits
        if hits:
            self.counters.add(self._HIT_NAMES[page_size], hits)
        if misses:
            self.counters.add(self._MISS_NAMES[page_size], misses)
        return hits, misses, misses * self.config.walk_ns(page_size)

    def flush(self) -> None:
        """Drop all entries (context switch)."""
        for array in self._arrays.values():
            array.clear()

    def resident(self, page_size: int) -> int:
        """Number of live entries in the array for *page_size*."""
        return len(self._arrays[page_size])

    def keys(self, page_size: int) -> List[int]:
        """Cached virtual pages of the *page_size* array, oldest first."""
        return [vpage for _, vpage in self._arrays[page_size].keys()]

    # -- snapshot view ------------------------------------------------------
    def dump_state(self) -> dict:
        """Picklable snapshot: per-array entry keys in LRU order
        (oldest first)."""
        return {size: self.keys(size) for size in self._arrays}

    # -- analytic steady-state helpers ------------------------------------
    def analytic_stream_misses(self, nbytes: int, page_size: int) -> int:
        """Misses for a single sequential sweep over *nbytes*: one per
        page touched (streams never revisit pages soon enough to hit)."""
        if nbytes <= 0:
            raise ValueError(f"nbytes must be positive, got {nbytes}")
        return (nbytes + page_size - 1) // page_size

    def analytic_rotate_misses(
        self, n_streams: int, switches: int, pages_per_stream_visit: float, page_size: int
    ) -> int:
        """Misses for round-robin bursts over *n_streams* regions.

        With LRU capacity *C* and a strict round-robin over ``n > C``
        streams, every burst switch misses (the stream's page was evicted
        ``n - 1`` switches ago); with ``n <= C`` only page-boundary
        crossings miss.  *pages_per_stream_visit* is the average number of
        new pages a burst spills into (0 when bursts stay inside one page).
        """
        if n_streams <= 0 or switches < 0:
            raise ValueError("need n_streams > 0 and switches >= 0")
        capacity = self.config.entries_for(page_size)
        boundary = int(switches * pages_per_stream_visit)
        if n_streams <= capacity:
            # resident steady state: only boundary crossings miss
            return n_streams + boundary
        # thrash: every switch misses, plus boundary crossings
        return switches + boundary

    def analytic_random_misses(
        self, n_accesses: int, region_bytes: int, page_size: int
    ) -> int:
        """Misses for uniform random accesses over *region_bytes*:
        steady-state hit probability is coverage/region (capped at 1)."""
        if n_accesses < 0 or region_bytes <= 0:
            raise ValueError("need n_accesses >= 0 and region_bytes > 0")
        capacity = self.config.entries_for(page_size)
        pages_in_region = max(1, region_bytes // page_size)
        hit_prob = min(1.0, capacity / pages_in_region)
        return int(round(n_accesses * (1.0 - hit_prob)))
