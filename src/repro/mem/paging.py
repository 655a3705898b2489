"""Page tables.

A :class:`PageTable` maps virtual pages to physical frames for two page
sizes (4 KB base pages and 2 MB hugepages, which on x86-64 are leaf
entries one level up the radix tree — hence the cheaper walk).
Translation returns both the physical address and the page size so
callers (TLB, registration engine, DMA) can behave page-size-aware.

Leaf translations are stored as :class:`PageRun` extents — a start
address, a page size and parallel numpy arrays of frame addresses, pin
counts and CoW flags — so mapping, unmapping, pinning and translating a
whole buffer are a few array operations rather than one Python object
per page.  :class:`PageTableEntry` is a write-through view of one page
of a run and keeps the per-page API (``lookup``, ``pages_in_range``,
``entries``) that the reference costing path and the checkers walk.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.mem.physical import PAGE_2M, PAGE_4K, align_down

_PAGE_SIZES = (PAGE_4K, PAGE_2M)


class TranslationFault(Exception):
    """Raised when a virtual address has no mapping (a segfault)."""

    def __init__(self, vaddr: int):
        super().__init__(f"no translation for {vaddr:#x}")
        self.vaddr = vaddr


def _check_page_size(page_size: int) -> None:
    if page_size not in _PAGE_SIZES:
        raise ValueError(f"unsupported page size {page_size}")


class PageRun:
    """Consecutive leaf translations of one page size.

    Page ``i`` of the run maps ``start + i * page_size`` to ``paddr[i]``
    and carries ``pins[i]`` registrations and the CoW flag ``cow[i]``.
    """

    __slots__ = ("start", "page_size", "paddr", "pins", "cow", "_breaks")

    def __init__(self, start: int, page_size: int, paddr: np.ndarray,
                 pins: Optional[np.ndarray] = None,
                 cow: Optional[np.ndarray] = None):
        n = len(paddr)
        self.start = start
        self.page_size = page_size
        self.paddr = paddr
        self.pins = pins if pins is not None else np.zeros(n, dtype=np.int32)
        self.cow = cow if cow is not None else np.zeros(n, dtype=bool)
        self._breaks: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.paddr)

    @property
    def end(self) -> int:
        """One past the last mapped byte."""
        return self.start + len(self.paddr) * self.page_size

    def break_prefix(self) -> np.ndarray:
        """``prefix[i]``: physical discontinuities among pages ``0..i``
        (a page is adjacent when it starts where the previous one ends)."""
        if self._breaks is None:
            prefix = np.zeros(len(self.paddr), dtype=np.int64)
            np.cumsum(np.diff(self.paddr) != self.page_size, out=prefix[1:])
            self._breaks = prefix
        return self._breaks

    def restarts(self, first: int, last: int) -> int:
        """Prefetcher stream restarts over pages [first..last]: one cold
        start plus one per physical discontinuity inside the span."""
        prefix = self.break_prefix()
        return 1 + int(prefix[last] - prefix[first])

    def first_pinned(self, a: int, b: int) -> Optional[int]:
        """Index of the first pinned page in ``[a, b)``, or None."""
        pinned = self.pins[a:b] > 0
        return a + int(np.argmax(pinned)) if np.count_nonzero(pinned) else None

    def _append(self, paddr: np.ndarray) -> None:
        """Extend the run by fresh (unpinned, private) pages."""
        n = len(paddr)
        self.paddr = np.concatenate((self.paddr, paddr))
        self.pins = np.concatenate((self.pins, np.zeros(n, dtype=np.int32)))
        self.cow = np.concatenate((self.cow, np.zeros(n, dtype=bool)))
        self._breaks = None

    def _slice(self, a: int, b: int) -> "PageRun":
        """A new run holding pages ``[a, b)`` of this one."""
        return PageRun(self.start + a * self.page_size, self.page_size,
                       self.paddr[a:b].copy(), self.pins[a:b].copy(),
                       self.cow[a:b].copy())

    def _truncate(self, n: int) -> None:
        """Keep only the first *n* pages (views of them stay valid)."""
        self.paddr = self.paddr[:n]
        self.pins = self.pins[:n]
        self.cow = self.cow[:n]
        if self._breaks is not None:
            self._breaks = self._breaks[:n]


class PageTableEntry:
    """One leaf translation: a write-through view of page ``i`` of a
    :class:`PageRun`.

    Attributes
    ----------
    vaddr: virtual page base.
    paddr: physical frame base.
    page_size: 4096 or 2 MB.
    pin_count: number of holders that pinned this page (registration).
    cow: Copy-on-Write — shared with another address space after a
        fork; the first write must copy the frame.

    Constructing one directly makes a detached entry backed by a
    one-page run of its own (what :meth:`PageTable.unmap` returns).
    """

    __slots__ = ("_run", "_i")

    def __init__(self, vaddr: int, paddr: int, page_size: int,
                 pin_count: int = 0, cow: bool = False):
        self._run = PageRun(vaddr, page_size,
                            np.array([paddr], dtype=np.int64),
                            np.array([pin_count], dtype=np.int32),
                            np.array([cow], dtype=bool))
        self._i = 0

    @classmethod
    def view(cls, run: PageRun, i: int) -> "PageTableEntry":
        """The entry for page *i* of *run*."""
        entry = cls.__new__(cls)
        entry._run = run
        entry._i = i
        return entry

    @property
    def vaddr(self) -> int:
        return self._run.start + self._i * self._run.page_size

    @property
    def page_size(self) -> int:
        return self._run.page_size

    @property
    def paddr(self) -> int:
        return int(self._run.paddr[self._i])

    @paddr.setter
    def paddr(self, value: int) -> None:
        self._run.paddr[self._i] = value
        self._run._breaks = None  # the adjacency prefix is derived

    @property
    def pin_count(self) -> int:
        return int(self._run.pins[self._i])

    @pin_count.setter
    def pin_count(self, value: int) -> None:
        self._run.pins[self._i] = value

    @property
    def cow(self) -> bool:
        return bool(self._run.cow[self._i])

    @cow.setter
    def cow(self, value: bool) -> None:
        self._run.cow[self._i] = value

    @property
    def pinned(self) -> bool:
        """True while at least one registration pins the page."""
        return self.pin_count > 0

    def _values(self) -> Tuple[int, int, int, int, bool]:
        return (self.vaddr, self.paddr, self.page_size, self.pin_count,
                self.cow)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PageTableEntry):
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None  # type: ignore[assignment]

    def __copy__(self) -> "PageTableEntry":
        return PageTableEntry(self.vaddr, self.paddr, self.page_size,
                              self.pin_count, self.cow)

    def __repr__(self) -> str:
        return (f"PageTableEntry(vaddr={self.vaddr:#x}, paddr={self.paddr:#x}, "
                f"page_size={self.page_size}, pin_count={self.pin_count}, "
                f"cow={self.cow})")


class LeafTable:
    """Dict-like access to one page size's leaf entries, keyed by
    virtual page base (for checkers and tests)."""

    def __init__(self, table: "PageTable", page_size: int):
        self._table = table
        self._page_size = page_size

    def get(self, vaddr: int,
            default: Optional[PageTableEntry] = None) -> Optional[PageTableEntry]:
        if vaddr % self._page_size:
            return default
        hit = self._table._run_at(self._page_size, vaddr)
        return default if hit is None else PageTableEntry.view(*hit)

    def __getitem__(self, vaddr: int) -> PageTableEntry:
        entry = self.get(vaddr)
        if entry is None:
            raise KeyError(vaddr)
        return entry

    def __contains__(self, vaddr: int) -> bool:
        return self.get(vaddr) is not None

    def pop(self, vaddr: int) -> PageTableEntry:
        """Remove one leaf, pinned or not; returns a detached copy."""
        entry = self[vaddr].__copy__()
        self._table._remove(vaddr, self._page_size, self._page_size,
                            check_pins=False)
        return entry


class PageTable:
    """A two-granularity page table for one address space.

    Per page size, runs are kept sorted by start address (with a
    parallel start list for bisection) and never overlap.
    """

    #: page-walk depth for each page size (x86-64: 4 levels for 4 KB
    #: leaves, 3 for 2 MB leaves)
    WALK_LEVELS = {PAGE_4K: 4, PAGE_2M: 3}

    def __init__(self) -> None:
        self._runs: Dict[int, List[PageRun]] = {PAGE_4K: [], PAGE_2M: []}
        self._starts: Dict[int, List[int]] = {PAGE_4K: [], PAGE_2M: []}
        self._count: Dict[int, int] = {PAGE_4K: 0, PAGE_2M: 0}

    # -- run search ---------------------------------------------------------
    def _run_at(self, page_size: int, vaddr: int) -> Optional[Tuple[PageRun, int]]:
        """``(run, page index)`` of the *page_size* page covering *vaddr*."""
        starts = self._starts[page_size]
        i = bisect_right(starts, vaddr) - 1
        if i < 0:
            return None
        run = self._runs[page_size][i]
        off = vaddr - run.start
        if off >= len(run.paddr) * page_size:
            return None
        return run, off // page_size

    def _first_mapped(self, page_size: int, lo: int, hi: int) -> Optional[int]:
        """Lowest address in ``[lo, hi)`` mapped at *page_size*, or None."""
        starts = self._starts[page_size]
        i = bisect_right(starts, lo) - 1
        if i >= 0 and self._runs[page_size][i].end > lo:
            return lo
        if i + 1 < len(starts) and starts[i + 1] < hi:
            return starts[i + 1]
        return None

    # -- mapping -----------------------------------------------------------
    def map(self, vaddr: int, paddr: int, page_size: int) -> PageTableEntry:
        """Install a leaf translation; *vaddr*/*paddr* must be aligned."""
        run = self.bulk_map(vaddr, [paddr], page_size)
        return PageTableEntry.view(run, (vaddr - run.start) // page_size)

    def bulk_map(self, vaddr: int, frames, page_size: int) -> PageRun:
        """Install consecutive leaf translations starting at *vaddr*,
        one per physical frame in *frames*; returns the run holding them.

        Equivalent to calling :meth:`map` once per frame at
        ``vaddr, vaddr + page_size, ...``, except that every check runs
        before anything is installed: a refused call changes nothing.
        A run that ends exactly at *vaddr* is extended in place (brk
        growth stays one run).
        """
        _check_page_size(page_size)
        paddr = np.array(frames, dtype=np.int64)  # the run owns its frames
        n = len(paddr)
        if not n:
            raise ValueError("no frames to map")
        end = vaddr + n * page_size
        if page_size == PAGE_2M and \
                self._first_mapped(PAGE_4K, vaddr, end) is not None:
            raise ValueError(f"{vaddr:#x} overlaps existing 4 KB mappings")
        if vaddr % page_size:
            # bases step by page_size, so aligning the first aligns all
            raise ValueError(
                f"unaligned mapping {vaddr:#x} ({page_size} B page)"
            )
        # report the first failure the per-page loop would have hit
        bad = paddr % page_size != 0
        i_bad = int(np.argmax(bad)) if np.count_nonzero(bad) else n
        clash = self._first_mapped(page_size, vaddr, end)
        i_clash = n if clash is None else (clash - vaddr) // page_size
        if i_bad < n and i_bad <= i_clash:
            raise ValueError(
                f"unaligned mapping {vaddr + i_bad * page_size:#x} -> "
                f"{int(paddr[i_bad]):#x} ({page_size} B page)"
            )
        if i_clash < n:
            raise ValueError(f"{clash:#x} is already mapped")
        runs = self._runs[page_size]
        starts = self._starts[page_size]
        i = bisect_right(starts, vaddr)
        if i and runs[i - 1].end == vaddr:
            run = runs[i - 1]
            run._append(paddr)
        else:
            run = PageRun(vaddr, page_size, paddr)
            runs.insert(i, run)
            starts.insert(i, vaddr)
        self._count[page_size] += n
        return run

    def leaf_table(self, page_size: int) -> LeafTable:
        """Dict-like view of the leaf entries for *page_size*."""
        _check_page_size(page_size)
        return LeafTable(self, page_size)

    def unmap(self, vaddr: int, page_size: int) -> PageTableEntry:
        """Remove a leaf translation; pinned pages may not be unmapped.
        Returns a detached copy of the removed entry."""
        _check_page_size(page_size)
        hit = self._run_at(page_size, vaddr)
        if hit is None or vaddr % page_size:
            raise TranslationFault(vaddr)
        entry = PageTableEntry.view(*hit).__copy__()
        self._remove(vaddr, page_size, page_size)
        return entry

    def unmap_range(self, vaddr: int, length: int, page_size: int) -> np.ndarray:
        """Remove the *page_size* leaves covering ``[vaddr, vaddr+length)``
        and return their frames in address order.

        Atomic: an unmapped page (:class:`TranslationFault`) or a pinned
        one (``ValueError``) anywhere in the range refuses the whole call
        before anything is removed.
        """
        _check_page_size(page_size)
        if vaddr % page_size or length <= 0 or length % page_size:
            raise ValueError(
                f"bad unmap range {vaddr:#x}+{length} ({page_size} B pages)"
            )
        return self._remove(vaddr, length, page_size)

    def _remove(self, vaddr: int, length: int, page_size: int,
                check_pins: bool = True) -> np.ndarray:
        runs = self._runs[page_size]
        starts = self._starts[page_size]
        end = vaddr + length
        # every check first: consecutive runs k0..k-1 must cover the range
        k0 = bisect_right(starts, vaddr) - 1
        k = k0
        cursor = vaddr
        while cursor < end:
            if k < 0 or k >= len(runs) or runs[k].start > cursor \
                    or runs[k].end <= cursor:
                raise TranslationFault(cursor)
            cursor = runs[k].end
            k += 1
        spans = []
        for run in runs[k0:k]:
            a = max(0, (vaddr - run.start) // page_size)
            b = min(len(run), (end - run.start) // page_size)
            if check_pins:
                pinned = run.first_pinned(a, b)
                if pinned is not None:
                    raise ValueError(
                        f"cannot unmap pinned page "
                        f"{run.start + pinned * page_size:#x}"
                    )
            spans.append((run, a, b))
        # then mutate, last run first so list indices stay valid
        freed = [run.paddr[a:b] for run, a, b in spans]
        for offset, (run, a, b) in reversed(list(enumerate(spans))):
            k = k0 + offset
            tail = run._slice(b, len(run)) if b < len(run) else None
            if a:
                run._truncate(a)
                if tail is not None:
                    runs.insert(k + 1, tail)
                    starts.insert(k + 1, tail.start)
            elif tail is not None:
                runs[k] = tail
                starts[k] = tail.start
            else:
                del runs[k]
                del starts[k]
        self._count[page_size] -= length // page_size
        return freed[0] if len(freed) == 1 else np.concatenate(freed)

    # -- lookup ------------------------------------------------------------
    def lookup(self, vaddr: int) -> PageTableEntry:
        """Find the leaf entry covering *vaddr* (hugepages win)."""
        hit = self._run_at(PAGE_2M, vaddr) or self._run_at(PAGE_4K, vaddr)
        if hit is None:
            raise TranslationFault(vaddr)
        return PageTableEntry.view(*hit)

    def try_lookup(self, vaddr: int) -> Optional[PageTableEntry]:
        """Like :meth:`lookup` but returns None instead of faulting."""
        try:
            return self.lookup(vaddr)
        except TranslationFault:
            return None

    def translate(self, vaddr: int) -> Tuple[int, int]:
        """Return ``(paddr, page_size)`` for *vaddr*."""
        entry = self.lookup(vaddr)
        return entry.paddr + (vaddr - entry.vaddr), entry.page_size

    def is_mapped(self, vaddr: int) -> bool:
        """True if *vaddr* has a translation."""
        return self.try_lookup(vaddr) is not None

    def walk_levels(self, vaddr: int) -> int:
        """Radix-walk depth needed to translate *vaddr* (miss cost input)."""
        return self.WALK_LEVELS[self.lookup(vaddr).page_size]

    def run_for(self, vaddr: int,
                nbytes: int) -> Optional[Tuple[PageRun, int, int]]:
        """The run translating all of ``[vaddr, vaddr+nbytes)`` exactly
        as :meth:`lookup` would, as ``(run, first, last)`` — the
        inclusive page-index span inside the run — or None when no
        single run does (a gap, a run boundary, or 4 KB pages shadowed
        by a hugepage mapping)."""
        if nbytes <= 0:
            return None
        end = vaddr + nbytes
        hit = self._run_at(PAGE_2M, vaddr)
        if hit is None:
            hit = self._run_at(PAGE_4K, vaddr)
            if hit is None:
                return None
            if self._starts[PAGE_2M] and self._first_mapped(
                    PAGE_2M, align_down(vaddr, PAGE_2M), end) is not None:
                return None
        run, first = hit
        if end > run.end:
            return None
        return run, first, (end - 1 - run.start) // run.page_size

    # -- iteration ----------------------------------------------------------
    def pages_in_range(self, vaddr: int, length: int) -> Iterator[PageTableEntry]:
        """Yield each leaf entry covering ``[vaddr, vaddr+length)`` in
        address order.  Faults if any byte of the range is unmapped."""
        if length <= 0:
            raise ValueError(f"non-positive length {length}")
        cursor = vaddr
        end = vaddr + length
        while cursor < end:
            entry = self.lookup(cursor)
            yield entry
            cursor = entry.vaddr + entry.page_size

    def runs(self) -> Iterator[PageRun]:
        """All runs (4 KB then 2 MB, address order)."""
        for page_size in _PAGE_SIZES:
            yield from self._runs[page_size]

    def entries(self) -> Iterator[PageTableEntry]:
        """All leaf entries (4 KB then 2 MB, address order)."""
        for run in self.runs():
            for i in range(len(run)):
                yield PageTableEntry.view(run, i)

    @property
    def n_small(self) -> int:
        """Number of 4 KB leaf entries."""
        return self._count[PAGE_4K]

    @property
    def n_huge(self) -> int:
        """Number of 2 MB leaf entries."""
        return self._count[PAGE_2M]

    # -- fork ----------------------------------------------------------------
    def fork_cow(self) -> "PageTable":
        """A child table sharing every frame: both sides' pages turn
        Copy-on-Write; the child starts with no pins."""
        child = PageTable()
        for page_size in _PAGE_SIZES:
            for run in self._runs[page_size]:
                run.cow[:] = True
                child._runs[page_size].append(PageRun(
                    run.start, page_size, run.paddr.copy(),
                    cow=np.ones(len(run), dtype=bool)))
            child._starts[page_size] = list(self._starts[page_size])
            child._count[page_size] = self._count[page_size]
        return child

    # -- snapshot view ------------------------------------------------------
    def dump_state(self) -> Dict[str, List[Tuple[int, int, int, bool]]]:
        """Picklable leaf list per page size: ``(vaddr, paddr,
        pin_count, cow)`` tuples of plain Python values, address order."""
        state = {}
        for key, page_size in (("small", PAGE_4K), ("huge", PAGE_2M)):
            leaves: List[Tuple[int, int, int, bool]] = []
            for run in self._runs[page_size]:
                leaves += zip(range(run.start, run.end, page_size),
                              run.paddr.tolist(), run.pins.tolist(),
                              run.cow.tolist())
            state[key] = leaves
        return state
