"""Timed memory accesses: the bridge from data placement to ticks.

:class:`MemoryAccessEngine` combines one process's page table with a TLB,
a data cache and a prefetcher model, and prices four access shapes that
between them cover every workload in the paper:

- :meth:`~MemoryAccessEngine.touch` — exact line-by-line costing for small
  buffers (verbs microbenchmarks, allocator metadata).
- :meth:`~MemoryAccessEngine.stream` — sequential sweep over a large
  buffer (the dominant NAS access shape; prefetch-sensitive, so hugepages
  help through physical contiguity).
- :meth:`~MemoryAccessEngine.rotate` — round-robin bursts over many
  distinct regions (EP-style; thrashes the 8-entry hugepage TLB, which is
  how the paper's "TLB misses increase up to 8×" arises).
- :meth:`~MemoryAccessEngine.random` — uniform random touches over a
  region (IS-style bucket scatter).

All methods return an :class:`AccessCost`; internal arithmetic is in
nanoseconds and converted to whole ticks per call, so per-access costs far
below one tick still accumulate correctly across a phase.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional, Sequence, Tuple

import numpy as np

from repro import fastpath, sanitize, trace
from repro.analysis.counters import CounterSet
from repro.engine.clock import TickClock
from repro.mem.address_space import AddressSpace
from repro.mem.cache import CacheConfig, DataCache, Prefetcher
from repro.mem.physical import PAGE_2M, PAGE_4K, align_down
from repro.mem.tlb import SplitTLB, TLBConfig


@dataclass
class AccessCost:
    """Cost and event counts of one access phase."""

    ns: float = 0.0
    ticks: int = 0
    tlb_misses: int = 0
    tlb_hits: int = 0
    cache_misses: int = 0
    cache_hits: int = 0
    prefetched_lines: int = 0

    def __add__(self, other: "AccessCost") -> "AccessCost":
        # summed field-by-field from the dataclass definition, so a field
        # added later cannot be silently dropped from the sum
        return AccessCost(
            **{
                name: getattr(self, name) + getattr(other, name)
                for name in _COST_FIELDS
            }
        )


#: field names of AccessCost, resolved once (``dataclasses.fields`` is
#: too slow to call inside ``__add__``)
_COST_FIELDS = tuple(f.name for f in fields(AccessCost))


class MemoryAccessEngine:
    """Per-process (per-core) timed memory model."""

    def __init__(
        self,
        address_space: AddressSpace,
        tlb_config: TLBConfig,
        cache_config: CacheConfig,
        clock: TickClock,
        counters: Optional[CounterSet] = None,
    ):
        self.address_space = address_space
        self.clock = clock
        self.counters = counters if counters is not None else CounterSet()
        self.tlb = SplitTLB(tlb_config, self.counters)
        self.cache = DataCache(cache_config, self.counters)
        self.prefetcher = Prefetcher(cache_config, self.counters)

    # -- helpers ------------------------------------------------------------
    def _finish(self, cost: AccessCost, op: Optional[str] = None,
                nbytes: int = 0) -> AccessCost:
        cost.ticks = self.clock.ns_to_ticks(cost.ns)
        # every public access shape funnels through exactly one _finish
        # call on both the fast and the reference path, so the trace
        # stream is identical whichever path priced the access
        if op is not None and trace.active() is not None:
            trace.instant(
                f"mem.{op}", track="mem", bytes=nbytes, ticks=cost.ticks,
                tlb_misses=int(cost.tlb_misses),
                cache_misses=int(cost.cache_misses),
            )
        return cost

    def _page_size_at(self, vaddr: int) -> int:
        return self.address_space.page_table.lookup(vaddr).page_size

    # -- exact small-buffer access -------------------------------------------
    def touch(self, vaddr: int, nbytes: int, write: bool = False) -> AccessCost:
        """Access ``[vaddr, vaddr+nbytes)`` line by line, exactly.

        Intended for small buffers (the verbs benchmarks use 1 B–64 KB);
        cost grows with lines touched, page walks paid per page via the
        stateful TLB and cache.
        """
        if nbytes <= 0:
            raise ValueError(f"nbytes must be positive, got {nbytes}")
        san = sanitize._active
        if san is not None:
            san.check_access(self, vaddr, nbytes, "touch")
        if fastpath.enabled():
            cost = self._touch_fast(vaddr, nbytes, write)
            if cost is not None:
                return cost
        cost = AccessCost()
        line = self.cache.config.line_size
        cursor = align_down(vaddr, line)
        end = vaddr + nbytes
        last_page = -1
        while cursor < end:
            entry = self.address_space.page_table.lookup(cursor)
            if entry.vaddr != last_page:
                hit, ns = self.tlb.access(cursor, entry.page_size)
                cost.ns += ns
                if hit:
                    cost.tlb_hits += 1
                else:
                    cost.tlb_misses += 1
                last_page = entry.vaddr
            paddr = entry.paddr + (cursor - entry.vaddr)
            hit, ns = self.cache.access(paddr, write)
            cost.ns += ns
            if hit:
                cost.cache_hits += 1
            else:
                cost.cache_misses += 1
            cursor += line
        return self._finish(cost, "touch", nbytes)

    def _touch_fast(self, vaddr: int, nbytes: int, write: bool) -> Optional[AccessCost]:
        """Batched :meth:`touch`: TLB pages in one sweep, cache lines in
        one sweep per physically-contiguous run.

        Exactly equivalent to the reference loop (same ticks, counters
        and model state); returns None when the range is not covered by
        one page run and the caller must walk page by page.
        """
        line = self.cache.config.line_size
        start = align_down(vaddr, line)
        end = vaddr + nbytes
        run = self.address_space.translation_run(start, end - start)
        if run is None:
            return None
        pages, first_idx, last_idx = run
        ps = pages.page_size
        cost = AccessCost()
        cost.tlb_hits, cost.tlb_misses, ns = self.tlb.sweep(
            pages.start + first_idx * ps, last_idx - first_idx + 1, ps
        )
        # physically adjacent pages form one consecutive run of cache
        # keys: a span ends at each page after which the break count rises
        span_ends = (
            np.flatnonzero(np.diff(pages.break_prefix()[first_idx:last_idx + 1]))
            + first_idx
        ).tolist()
        span_ends.append(last_idx)
        paddr = pages.paddr
        sweep = self.cache.sweep
        cursor = start
        i = first_idx
        for j in span_ends:
            page_vaddr = pages.start + i * ps
            run_vend = pages.start + (j + 1) * ps
            seg_end = run_vend if run_vend < end else end
            n_lines = (seg_end - cursor + line - 1) // line
            hits, misses, seg_ns = sweep(
                (int(paddr[i]) + (cursor - page_vaddr)) // line, n_lines, write
            )
            cost.cache_hits += hits
            cost.cache_misses += misses
            ns += seg_ns
            cursor += n_lines * line
            i = j + 1
        cost.ns = ns
        return self._finish(cost, "touch", nbytes)

    # -- streaming -------------------------------------------------------------
    def stream(self, vaddr: int, nbytes: int, write: bool = False) -> AccessCost:
        """Sequential sweep over a large range (analytic per page).

        One TLB translation is charged per page; the prefetcher stream
        restarts whenever consecutive pages are not physically adjacent —
        scattered 4 KB frames restart every page, hugepages every 2 MB.
        """
        if nbytes <= 0:
            raise ValueError(f"nbytes must be positive, got {nbytes}")
        san = sanitize._active
        if san is not None:
            san.check_access(self, vaddr, nbytes, "stream")
        if fastpath.enabled():
            cost = self._stream_fast(vaddr, nbytes)
            if cost is not None:
                return cost
        cost = AccessCost()
        restarts = 1  # the first line of the sweep is always a cold start
        prev_entry = None
        for entry in self.address_space.page_table.pages_in_range(vaddr, nbytes):
            hit, ns = self.tlb.access(entry.vaddr, entry.page_size)
            cost.ns += ns
            if hit:
                cost.tlb_hits += 1
            else:
                cost.tlb_misses += 1
            if prev_entry is not None:
                physically_adjacent = (
                    prev_entry.paddr + prev_entry.page_size == entry.paddr
                )
                if not physically_adjacent:
                    restarts += 1
            prev_entry = entry
        n_lines = self.prefetcher.lines_for(nbytes)
        cost.ns += self.prefetcher.stream_cost_ns(n_lines, restarts)
        restart_lines = min(n_lines, restarts * self.cache.config.stream_restart_lines)
        cost.cache_misses += restart_lines
        cost.prefetched_lines += n_lines - restart_lines
        return self._finish(cost, "stream", nbytes)

    def _stream_fast(self, vaddr: int, nbytes: int) -> Optional[AccessCost]:
        """Batched :meth:`stream`: one TLB sweep, restarts read from the
        page run's physical-adjacency prefix.

        Exactly equivalent to the reference loop; returns None when the
        range is not covered by one page run.
        """
        run = self.address_space.translation_run(vaddr, nbytes)
        if run is None:
            return None
        pages, first_idx, last_idx = run
        cost = AccessCost()
        cost.tlb_hits, cost.tlb_misses, walk_ns = self.tlb.sweep(
            pages.start + first_idx * pages.page_size,
            last_idx - first_idx + 1,
            pages.page_size,
        )
        restarts = pages.restarts(first_idx, last_idx)
        n_lines = self.prefetcher.lines_for(nbytes)
        cost.ns = walk_ns + self.prefetcher.stream_cost_ns(n_lines, restarts)
        restart_lines = min(n_lines, restarts * self.cache.config.stream_restart_lines)
        cost.cache_misses = restart_lines
        cost.prefetched_lines = n_lines - restart_lines
        return self._finish(cost, "stream", nbytes)

    def copy(self, src: int, dst: int, nbytes: int) -> AccessCost:
        """A memcpy: stream-read the source and stream-write the target."""
        return self.stream(src, nbytes, write=False) + self.stream(
            dst, nbytes, write=True
        )

    # -- multi-stream rotation ----------------------------------------------------
    def rotate(
        self,
        regions: Sequence[Tuple[int, int]],
        switches: int,
        burst_bytes: int,
    ) -> AccessCost:
        """Round-robin bursts of *burst_bytes* over *regions* (analytic).

        ``regions`` is a list of ``(vaddr, nbytes)``; *switches* is the
        total number of bursts executed (cycling through the regions).
        This is the access shape that penalises hugepages: more regions
        than hugepage TLB entries means every burst switch pays a walk.
        """
        if not regions:
            raise ValueError("rotate() needs at least one region")
        if switches < 0 or burst_bytes <= 0:
            raise ValueError("need switches >= 0 and burst_bytes > 0")
        san = sanitize._active
        if san is not None:
            for region_vaddr, region_bytes in regions:
                san.check_access(self, region_vaddr, region_bytes, "rotate")
        cost = AccessCost()
        page_size = self._page_size_at(regions[0][0])
        # bursts wander through their region; spill fraction = share of
        # bursts that start a page the stream has not visited recently
        pages_per_visit = min(1.0, burst_bytes / page_size)
        misses = self.tlb.analytic_rotate_misses(
            len(regions), switches, pages_per_visit, page_size
        )
        total_accesses = switches  # one translated burst per switch
        hits = max(0, total_accesses - misses)
        cost.tlb_misses += misses
        cost.tlb_hits += hits
        self.counters.add(SplitTLB._MISS_NAMES[page_size], misses)
        self.counters.add(SplitTLB._HIT_NAMES[page_size], hits)
        cost.ns += misses * self.tlb.config.walk_ns(page_size)
        # each burst: first line restarts the stream, rest ride prefetch
        lines_per_burst = self.prefetcher.lines_for(burst_bytes)
        cost.ns += switches * self.prefetcher.stream_cost_ns(lines_per_burst, 1)
        restart_lines = min(
            lines_per_burst, self.cache.config.stream_restart_lines
        )
        cost.cache_misses += switches * restart_lines
        cost.prefetched_lines += switches * (lines_per_burst - restart_lines)
        return self._finish(cost, "rotate", switches * burst_bytes)

    # -- power-of-two strided access -------------------------------------------
    def strided(
        self, vaddr: int, region_bytes: int, stride: int, n_accesses: int
    ) -> AccessCost:
        """Strided sweeps (bucket scatters, transposes) — the hugepage
        *pathology* (analytic).

        Physically scattered 4 KB frames randomise which cache sets a
        power-of-two stride lands in, so strided writes behave like an
        ordinary miss stream.  A physically *contiguous* hugepage keeps
        the stride's set-mapping intact: strides of a page or more map to
        the same few sets and thrash them (the classic loss of page
        colouring), costing full conflict misses.  This is the mechanism
        that makes the IS bucket scatter slower under hugepages.
        """
        if n_accesses < 0 or region_bytes <= 0 or stride <= 0:
            raise ValueError("need n_accesses >= 0, region/stride > 0")
        san = sanitize._active
        if san is not None:
            san.check_access(self, vaddr, region_bytes, "strided")
        cost = AccessCost()
        page_size = self._page_size_at(vaddr)
        # TLB: the stride visits region/stride slots in rotation
        slots = max(1, region_bytes // stride)
        misses = self.tlb.analytic_rotate_misses(
            min(slots, 4096), n_accesses, 0.0, page_size
        )
        hits = max(0, n_accesses - misses)
        cost.tlb_misses += misses
        cost.tlb_hits += hits
        self.counters.add(SplitTLB._MISS_NAMES[page_size], misses)
        self.counters.add(SplitTLB._HIT_NAMES[page_size], hits)
        cost.ns += misses * self.tlb.config.walk_ns(page_size)
        # cache: set conflicts only when physical layout preserves the
        # power-of-two stride (hugepages) and the stride spans >= a page
        pow2 = stride & (stride - 1) == 0
        conflicts = page_size == PAGE_2M and pow2 and stride >= PAGE_4K
        if conflicts:
            cost.ns += n_accesses * self.cache.config.miss_ns
            cost.cache_misses += n_accesses
            self.counters.add("cache.miss", n_accesses)
            self.counters.add("cache.set_conflict", n_accesses)
        else:
            cost.ns += n_accesses * self.cache.config.prefetch_hit_ns * 1.5
            cost.cache_misses += n_accesses // 2
            self.counters.add("cache.miss", n_accesses // 2)
        return self._finish(cost, "strided", region_bytes)

    # -- random access ----------------------------------------------------------
    def random(self, vaddr: int, region_bytes: int, n_accesses: int) -> AccessCost:
        """Uniform random single-line touches over a region (analytic).

        TLB behaviour follows the steady-state coverage model; every
        access is a cache miss (a random working set of NAS class C size
        never fits), and the prefetcher cannot help.
        """
        if n_accesses < 0 or region_bytes <= 0:
            raise ValueError("need n_accesses >= 0 and region_bytes > 0")
        san = sanitize._active
        if san is not None:
            san.check_access(self, vaddr, region_bytes, "random")
        cost = AccessCost()
        page_size = self._page_size_at(vaddr)
        misses = self.tlb.analytic_random_misses(n_accesses, region_bytes, page_size)
        hits = n_accesses - misses
        cost.tlb_misses += misses
        cost.tlb_hits += hits
        self.counters.add(SplitTLB._MISS_NAMES[page_size], misses)
        self.counters.add(SplitTLB._HIT_NAMES[page_size], hits)
        cost.ns += misses * self.tlb.config.walk_ns(page_size)
        cost.ns += n_accesses * self.cache.config.miss_ns
        cost.cache_misses += n_accesses
        self.counters.add("cache.miss", n_accesses)
        return self._finish(cost, "random", region_bytes)
