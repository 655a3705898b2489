"""Per-process address spaces: VMAs, ``mmap``/``munmap`` and ``brk``.

The layout mirrors a classic Linux x86-64 process:

- the **brk heap** grows upward from ``BRK_BASE`` (base pages only — this
  is what ``morecore()``-style allocators extend),
- **anonymous 4 KB mmaps** are placed downward from ``MMAP_TOP``,
- **hugepage mmaps** (private hugetlbfs mappings) get their own region
  above ``HUGE_BASE`` so 2 MB alignment is free.

All mappings are populated eagerly (``MAP_POPULATE``): HPC applications
touch their buffers immediately, and the paper's registration costs are
measured on resident memory, so modelling demand faults would only add
noise.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.mem.hugetlbfs import HugeTLBfs
from repro.mem.paging import PageRun, PageTable
from repro.mem.physical import (
    PAGE_2M,
    PAGE_4K,
    PhysicalMemory,
    align_up,
)

#: bottom of the brk heap
BRK_BASE = 0x0000_1000_0000
#: hugepage-mapping region base
HUGE_BASE = 0x0000_4000_0000_0000
#: top of the downward-growing anonymous mmap region
MMAP_TOP = 0x0000_7FFF_0000_0000


class MappingError(Exception):
    """Raised for invalid mmap/munmap/brk requests."""


@dataclass
class VMA:
    """A virtual memory area.

    Attributes
    ----------
    start, length: the virtual range ``[start, start+length)``.
    page_size: backing page size (4 KB or 2 MB).
    kind: "brk", "anon" or "huge".
    name: optional label (useful in debugging and reports).
    """

    start: int
    length: int
    page_size: int
    kind: str
    name: str = ""

    @property
    def end(self) -> int:
        """One past the last mapped byte."""
        return self.start + self.length

    def contains(self, vaddr: int) -> bool:
        """True if *vaddr* falls inside this VMA."""
        return self.start <= vaddr < self.end


class AddressSpace:
    """One process's virtual address space.

    Parameters
    ----------
    physical: machine physical memory (4 KB frame source).
    hugetlbfs: the hugepage pool (2 MB frame source); optional — address
        spaces on machines without a hugepage pool simply cannot create
        hugepage mappings.
    """

    def __init__(self, physical: PhysicalMemory, hugetlbfs: Optional[HugeTLBfs] = None):
        self.physical = physical
        self.hugetlbfs = hugetlbfs
        self.page_table = PageTable()
        #: callables invoked as ``hook(start, length)`` just before a
        #: virtual range loses its mapping (munmap / brk shrink).  The MPI
        #: registration cache hooks in here — the pin-down cache must be
        #: invalidated when virtual-to-physical translations change, and
        #: *only* then (a free() that keeps the mapping, like the hugepage
        #: library's, keeps cached registrations valid).
        self.unmap_hooks: List = []
        self._vmas: Dict[int, VMA] = {}
        self._brk = BRK_BASE
        self._mmap_cursor = MMAP_TOP
        self._huge_cursor = HUGE_BASE
        # sorted-start index for O(log n) VMA lookup (rebuilt lazily
        # after map changes)
        self._vma_starts: List[int] = []
        self._vma_index_dirty = True

    # -- introspection -----------------------------------------------------
    @property
    def vmas(self) -> List[VMA]:
        """All VMAs in address order."""
        return [self._vmas[k] for k in sorted(self._vmas)]

    @property
    def brk(self) -> int:
        """Current program break."""
        return self._brk

    def find_vma(self, vaddr: int) -> Optional[VMA]:
        """The VMA containing *vaddr*, or None."""
        if self._vma_index_dirty:
            self._vma_starts = sorted(self._vmas)
            self._vma_index_dirty = False
        starts = self._vma_starts
        i = bisect_right(starts, vaddr) - 1
        if i < 0:
            return None
        vma = self._vmas[starts[i]]
        return vma if vaddr < vma.end else None

    # -- translation runs (fast path) ----------------------------------------
    def translation_run(
        self, vaddr: int, nbytes: int
    ) -> Optional[Tuple[PageRun, int, int]]:
        """The page run translating ``[vaddr, vaddr+nbytes)``.

        Returns ``(run, first_idx, last_idx)`` — the inclusive page index
        span inside the run — or None when no single run covers the
        range the way page walks would (fall back to per-page lookups).
        The run is the live page-table storage, so it cannot go stale.
        """
        return self.page_table.run_for(vaddr, nbytes)

    def translate(self, vaddr: int):
        """``(paddr, page_size)`` for *vaddr* (faults if unmapped)."""
        return self.page_table.translate(vaddr)

    # -- mmap ----------------------------------------------------------------
    def mmap(
        self,
        length: int,
        page_size: int = PAGE_4K,
        name: str = "",
        keep_hugepage_reserve: int = 0,
    ) -> VMA:
        """Create a populated anonymous mapping of *length* bytes.

        Hugepage mappings draw frames from the hugetlbfs pool and honour
        *keep_hugepage_reserve* (see :meth:`HugeTLBfs.acquire`).  The
        length is rounded up to the page size.
        """
        if length <= 0:
            raise MappingError(f"mmap length must be positive, got {length}")
        if page_size == PAGE_4K:
            length = align_up(length, PAGE_4K)
            n_pages = length // PAGE_4K
            start = self._mmap_cursor - length
            frames = self.physical.alloc_frames(n_pages)
            vma = VMA(start=start, length=length, page_size=PAGE_4K, kind="anon", name=name)
            self._map_frames(start, frames, PAGE_4K)
            self._mmap_cursor = start - PAGE_4K  # guard page gap
        elif page_size == PAGE_2M:
            if self.hugetlbfs is None:
                raise MappingError("no hugetlbfs mounted on this machine")
            length = align_up(length, PAGE_2M)
            n_pages = length // PAGE_2M
            frames = self.hugetlbfs.acquire(n_pages, keep_reserve=keep_hugepage_reserve)
            start = self._huge_cursor
            vma = VMA(start=start, length=length, page_size=PAGE_2M, kind="huge", name=name)
            self._map_frames(start, frames, PAGE_2M)
            self.hugetlbfs.notice_acquired(n_pages)
            self._huge_cursor = start + length + PAGE_2M  # guard gap
        else:
            raise MappingError(f"unsupported page size {page_size}")
        self._vmas[vma.start] = vma
        self._vma_index_dirty = True
        return vma

    def munmap(self, start: int) -> None:
        """Unmap the VMA beginning exactly at *start*, freeing its frames.

        (Partial unmaps are not needed by any modelled component.)
        """
        vma = self._vmas.get(start)
        if vma is None:
            raise MappingError(f"no VMA starts at {start:#x}")
        if vma.kind == "brk":
            raise MappingError("the brk VMA is shrunk with sbrk(), not munmap()")
        for hook in self.unmap_hooks:
            hook(vma.start, vma.length)
        freed = self.page_table.unmap_range(start, vma.length, vma.page_size)
        if vma.page_size == PAGE_2M:
            assert self.hugetlbfs is not None
            self.hugetlbfs.release(freed.tolist())
            self.hugetlbfs.notice_released(len(freed))
        else:
            self.physical.free_frames(freed)
        del self._vmas[start]
        self._vma_index_dirty = True

    def _map_frames(self, start: int, frames, page_size: int) -> None:
        """Map *frames* at *start*, giving them back to their pool if the
        page table refuses the mapping."""
        try:
            self.page_table.bulk_map(start, frames, page_size)
        except ValueError:
            if page_size == PAGE_2M:
                assert self.hugetlbfs is not None
                # acquire() popped them: release in reverse to restore
                # the pool's order
                self.hugetlbfs.release(frames[::-1])
            else:
                self.physical.free_frames(frames)
            raise

    # -- brk -------------------------------------------------------------------
    def sbrk(self, delta: int) -> int:
        """Grow (or shrink, with negative *delta*) the heap; returns the
        *previous* break, like the libc call.

        Growth is page-granular internally; partial pages of the break are
        kept mapped until the break leaves them entirely.
        """
        old_brk = self._brk
        new_brk = old_brk + delta
        if new_brk < BRK_BASE:
            raise MappingError("brk below heap base")
        old_top = align_up(old_brk, PAGE_4K)
        new_top = align_up(new_brk, PAGE_4K)
        if new_top > old_top:
            n_new = (new_top - old_top) // PAGE_4K
            frames = self.physical.alloc_frames(n_new)
            self._map_frames(old_top, frames, PAGE_4K)
        elif new_top < old_top:
            for hook in self.unmap_hooks:
                hook(new_top, old_top - new_top)
            freed = self.page_table.unmap_range(new_top, old_top - new_top, PAGE_4K)
            self.physical.free_frames(freed)
        self._brk = new_brk
        self._sync_brk_vma()
        return old_brk

    def _sync_brk_vma(self) -> None:
        length = align_up(self._brk, PAGE_4K) - BRK_BASE
        if length > 0:
            self._vmas[BRK_BASE] = VMA(
                start=BRK_BASE, length=length, page_size=PAGE_4K, kind="brk", name="[heap]"
            )
        else:
            self._vmas.pop(BRK_BASE, None)
        self._vma_index_dirty = True

    # -- fork / Copy-on-Write ---------------------------------------------------
    def fork(self) -> "AddressSpace":
        """Fork this address space: the child shares every frame
        Copy-on-Write, like ``fork(2)`` with ``MAP_PRIVATE`` mappings.

        This is why the paper's mapping layer "must leave a reserve of
        hugepages that are needed when forking processes for
        Copy-on-Write reasons" (§3.1): the *fork* itself allocates no
        hugepages, but the first write to a shared hugepage must — see
        :meth:`write_fault` — and fails if the pool is dry.

        Forking with pinned (registered) pages is refused: CoW would
        silently break the adapter's translations, the classic
        InfiniBand fork hazard.
        """
        for run in self.page_table.runs():
            pinned = run.first_pinned(0, len(run))
            if pinned is not None:
                raise MappingError(
                    f"fork with registered memory is unsafe (page "
                    f"{run.start + pinned * run.page_size:#x} is pinned)"
                )
        child = AddressSpace(self.physical, self.hugetlbfs)
        child._brk = self._brk
        child._mmap_cursor = self._mmap_cursor
        child._huge_cursor = self._huge_cursor
        for vma in self.vmas:
            child._vmas[vma.start] = VMA(
                start=vma.start, length=vma.length, page_size=vma.page_size,
                kind=vma.kind, name=vma.name,
            )
        child.page_table = self.page_table.fork_cow()
        for run in self.page_table.runs():
            for paddr in run.paddr.tolist():
                self.physical.share_frame(paddr)
        if self.hugetlbfs is not None:
            huge_pages = sum(
                v.length // PAGE_2M for v in self.vmas if v.page_size == PAGE_2M
            )
            self.hugetlbfs.notice_acquired(huge_pages)
        return child

    def write_fault(self, vaddr: int) -> bool:
        """Handle a write to *vaddr*: if the page is CoW, copy it.

        Returns True when a copy happened.  Hugepage copies draw a fresh
        frame from the hugetlbfs pool and raise
        :class:`~repro.mem.hugetlbfs.HugePagePoolExhausted` when it is
        empty — the failure mode the library's fork reserve prevents.
        """
        entry = self.page_table.lookup(vaddr)
        if not entry.cow:
            return False
        if entry.page_size == PAGE_2M:
            if self.hugetlbfs is None:
                raise MappingError("CoW hugepage fault without hugetlbfs")
            new_paddr = self.hugetlbfs.acquire(1)[0]
        else:
            new_paddr = self.physical.alloc_frame()
        old_paddr = entry.paddr
        entry.paddr = new_paddr
        entry.cow = False
        # drop our reference to the shared frame
        if entry.page_size == PAGE_2M:
            self.physical.free_hugepage(old_paddr)
        else:
            self.physical.free_frame(old_paddr)
        return True

    # -- teardown -----------------------------------------------------------------
    def destroy(self) -> None:
        """Release every mapping (process exit)."""
        for start in [v.start for v in self.vmas if v.kind != "brk"]:
            self.munmap(start)
        if self._brk > BRK_BASE:
            self.sbrk(BRK_BASE - self._brk)
