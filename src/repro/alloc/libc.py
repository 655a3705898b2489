"""A glibc-like general-purpose allocator.

Faithful to the circa-2006 dlmalloc/ptmalloc2 design in the ways that
matter for the paper's comparison:

- **boundary-tag blocks** with a 16-byte header carved out of the heap
  (the "inflation of libc structures" the paper mentions in §1);
- **fastbins** (LIFO, no coalescing) for tiny blocks;
- a **size-sorted bin** with best-fit search for everything else;
- **immediate coalescing** of non-fast blocks with their neighbours —
  which, combined with splitting on the next allocation, produces the
  "useless coalescing/splitting patterns" (§3.2 item 5) for
  alloc/free/alloc cycles of the same size;
- an **mmap threshold** (128 KB): big requests get fresh ``mmap`` regions
  and ``free`` returns them to the kernel, so every cycle repays the
  syscall *and the page population* — the dominant thrash cost for
  Abinit-style wavefunction arrays;
- **heap trimming** past 128 KB of free top, re-paying population on the
  next growth.

The heap normally grows with ``sbrk`` (``morecore()``); the growth
mechanism is pluggable so :mod:`repro.alloc.libhugetlbfs` can rebind it to
hugepage mappings exactly like the real libhugetlbfs does.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Tuple

from repro.alloc.base import AllocationError, Allocator, AllocatorCostModel
from repro.mem.address_space import AddressSpace
from repro.mem.physical import PAGE_4K, align_up

#: block header size (boundary tag), bytes
HEADER = 16
#: allocation granularity
ALIGN = 16
#: largest fastbin payload
FASTBIN_MAX = 160
#: requests at or above this go straight to mmap
MMAP_THRESHOLD = 128 * 1024
#: free top space beyond which the heap is trimmed back
TRIM_THRESHOLD = 128 * 1024
#: minimum heap growth per morecore call (glibc top_pad)
MIN_GROW = 128 * 1024
#: smallest splittable remainder
MIN_BLOCK = 32


class _Block:
    """One heap block (allocated or free), linked by address.

    Fastbin blocks keep ``free=False`` with ``in_fastbin=True`` — like
    glibc, which leaves fastbin chunks marked in-use precisely so the
    coalescing fast path skips them.
    """

    __slots__ = ("addr", "size", "free", "in_fastbin", "prev", "next")

    def __init__(self, addr: int, size: int):
        self.addr = addr
        self.size = size
        self.free = False
        self.in_fastbin = False
        self.prev: Optional[int] = None
        self.next: Optional[int] = None


class BrkMorecore:
    """Classic ``morecore()``: extend the brk heap with base pages."""

    page_size = PAGE_4K

    def __init__(self, aspace: AddressSpace, cost: AllocatorCostModel):
        self.aspace = aspace
        self.cost = cost

    def extend(self, nbytes: int) -> Tuple[int, int, float]:
        """Grow the heap; returns ``(start, length, cost_ns)``."""
        nbytes = align_up(nbytes, PAGE_4K)
        start = self.aspace.sbrk(nbytes)
        ns = self.cost.syscall_ns + self.cost.populate_ns(PAGE_4K, nbytes // PAGE_4K)
        return start, nbytes, ns

    def shrink(self, nbytes: int) -> Tuple[int, float]:
        """Give heap back to the kernel; returns ``(bytes released,
        cost_ns)``."""
        nbytes = (nbytes // PAGE_4K) * PAGE_4K
        if nbytes <= 0:
            return 0, 0.0
        self.aspace.sbrk(-nbytes)
        return nbytes, self.cost.syscall_ns


class LibcAllocator(Allocator):
    """The general-purpose allocator (see module docstring)."""

    name = "libc"

    def __init__(
        self,
        aspace: AddressSpace,
        cost_model: Optional[AllocatorCostModel] = None,
        counters=None,
        morecore=None,
        use_mmap: bool = True,
    ):
        super().__init__(cost_model, counters)
        self.aspace = aspace
        self.morecore = morecore if morecore is not None else BrkMorecore(aspace, self.cost)
        self.use_mmap = use_mmap
        self._blocks: Dict[int, _Block] = {}
        self._fastbins: Dict[int, List[int]] = {}
        self._sorted_bin: List[Tuple[int, int]] = []  # (size, addr), sorted
        self._mmapped: Dict[int, int] = {}  # vaddr -> vma start length implied
        self._heap_end: Optional[int] = None  # current top of brk-backed heap
        # the block ending at ``_heap_end`` (None before the first growth);
        # kept through split, coalesce and trim so growth stitches in O(1)
        self._top: Optional[_Block] = None

    # -- bin helpers --------------------------------------------------------
    @staticmethod
    def _class_of(size: int) -> int:
        return align_up(size + HEADER, ALIGN)

    def _bin_insert(self, block: _Block) -> int:
        """Insert into the size-sorted bin; returns nodes visited."""
        key = (block.size, block.addr)
        i = bisect.bisect_left(self._sorted_bin, key)
        self._sorted_bin.insert(i, key)
        return max(1, i + 1)

    def _bin_remove(self, block: _Block) -> None:
        key = (block.size, block.addr)
        i = bisect.bisect_left(self._sorted_bin, key)
        if i >= len(self._sorted_bin) or self._sorted_bin[i] != key:
            raise AllocationError(f"bin corruption at {block.addr:#x}")
        del self._sorted_bin[i]

    def _bin_best_fit(self, need: int) -> Tuple[Optional[_Block], int]:
        """Smallest free block with size >= need; returns (block, visited)."""
        i = bisect.bisect_left(self._sorted_bin, (need, 0))
        if i >= len(self._sorted_bin):
            return None, max(1, len(self._sorted_bin))
        size, addr = self._sorted_bin[i]
        return self._blocks[addr], i + 1

    # -- block surgery -----------------------------------------------------------
    def _split(self, block: _Block, need: int) -> float:
        """Split *block* (already out of bins) so it is exactly *need*
        bytes; the remainder becomes a free block.  Returns cost in ns."""
        ns = self.cost.header_ns
        remainder = block.size - need
        if remainder >= MIN_BLOCK:
            rest = _Block(block.addr + need, remainder)
            rest.free = True
            rest.prev = block.addr
            rest.next = block.next
            if block.next is not None:
                self._blocks[block.next].prev = rest.addr
            block.next = rest.addr
            block.size = need
            self._blocks[rest.addr] = rest
            if block is self._top:
                self._top = rest
            ns += self.cost.header_ns
            ns += self._bin_insert(rest) * self.cost.node_visit_ns
        return ns

    def _coalesce(self, block: _Block) -> Tuple[_Block, float]:
        """Merge *block* with free neighbours; returns (merged, cost_ns)."""
        ns = 0.0
        # merge with next
        if block.next is not None:
            nxt = self._blocks[block.next]
            if nxt.free:
                self._bin_remove(nxt)
                ns += self.cost.node_visit_ns + self.cost.header_ns
                block.size += nxt.size
                block.next = nxt.next
                if nxt.next is not None:
                    self._blocks[nxt.next].prev = block.addr
                del self._blocks[nxt.addr]
                if nxt is self._top:
                    self._top = block
        # merge with prev
        if block.prev is not None:
            prv = self._blocks[block.prev]
            if prv.free:
                self._bin_remove(prv)
                ns += self.cost.node_visit_ns + self.cost.header_ns
                prv.size += block.size
                prv.next = block.next
                if block.next is not None:
                    self._blocks[block.next].prev = prv.addr
                del self._blocks[block.addr]
                if block is self._top:
                    self._top = prv
                block = prv
        return block, ns

    # -- allocation -------------------------------------------------------------
    def _malloc(self, size: int) -> Tuple[int, float]:
        if self.use_mmap and size >= MMAP_THRESHOLD:
            return self._mmap_alloc(size)
        need = self._class_of(size)
        ns = 0.0
        # 1. fastbin exact hit
        if need - HEADER <= FASTBIN_MAX:
            stack = self._fastbins.get(need)
            if stack:
                addr = stack.pop()
                block = self._blocks[addr]
                block.in_fastbin = False
                ns += self.cost.node_visit_ns + self.cost.header_ns
                return addr + HEADER, ns
        # 2. best fit from the sorted bin
        block, visited = self._bin_best_fit(need)
        ns += visited * self.cost.node_visit_ns
        if block is None:
            # 3. grow the heap
            grow = max(need, MIN_GROW)
            start, length, grow_ns = self.morecore.extend(grow)
            ns += grow_ns
            fresh = _Block(start, length)
            fresh.free = True
            if self._heap_end in (None, start):
                # first or contiguous growth: stitch to the old top block
                last = self._top
                if last is not None:
                    last.next = fresh.addr
                    fresh.prev = last.addr
                self._heap_end = start + length
                self._top = fresh
            self._blocks[start] = fresh
            ns += self._bin_insert(fresh) * self.cost.node_visit_ns
            fresh, merge_ns = self._coalesce_free_into_bin(fresh)
            ns += merge_ns
            block = fresh
        self._bin_remove(block)
        block.free = False
        ns += self._split(block, need)
        return block.addr + HEADER, ns

    def _coalesce_free_into_bin(self, block: _Block) -> Tuple[_Block, float]:
        """Coalesce a block that is currently in the bin with neighbours,
        keeping bin membership consistent."""
        self._bin_remove(block)
        block, ns = self._coalesce(block)
        block.free = True
        ns += self._bin_insert(block) * self.cost.node_visit_ns
        return block, ns

    def _mmap_alloc(self, size: int) -> Tuple[int, float]:
        length = align_up(size + HEADER, PAGE_4K)
        vma = self.aspace.mmap(length, page_size=PAGE_4K, name="libc-mmap")
        ns = self.cost.syscall_ns + self.cost.populate_ns(PAGE_4K, length // PAGE_4K)
        self._mmapped[vma.start + HEADER] = vma.start
        return vma.start + HEADER, ns

    # -- free ----------------------------------------------------------------------
    def _free(self, vaddr: int, size: int) -> float:
        start = self._mmapped.pop(vaddr, None)
        if start is not None:
            self.aspace.munmap(start)
            return self.cost.syscall_ns
        addr = vaddr - HEADER
        block = self._blocks.get(addr)
        if block is None or block.free or block.in_fastbin:
            raise AllocationError(f"bad or double free at {vaddr:#x}")
        ns = self.cost.header_ns
        payload_class = block.size - HEADER
        if payload_class <= FASTBIN_MAX:
            block.in_fastbin = True
            self._fastbins.setdefault(block.size, []).append(addr)
            return ns + self.cost.node_visit_ns
        block.free = True
        block, merge_ns = self._coalesce(block)
        ns += merge_ns
        ns += self._bin_insert(block) * self.cost.node_visit_ns
        ns += self._maybe_trim(block)
        return ns

    def _maybe_trim(self, block: _Block) -> float:
        """Give the heap top back to the kernel when it grows too fat."""
        if self._heap_end is None or not block.free:
            return 0.0
        if block.addr + block.size != self._heap_end:
            return 0.0
        if block.size <= TRIM_THRESHOLD:
            return 0.0
        keep = TRIM_THRESHOLD // 2
        give_back = (block.size - keep) // PAGE_4K * PAGE_4K
        if give_back <= 0:
            return 0.0
        # trim only what the morecore really releases: a tail it keeps
        # mapped stays part of the top block
        released, shrink_ns = self.morecore.shrink(give_back)
        if released <= 0:
            return 0.0
        self._bin_remove(block)
        block.size -= released
        self._heap_end -= released
        ns = self._bin_insert(block) * self.cost.node_visit_ns
        ns += shrink_ns
        return ns

    # -- diagnostics -------------------------------------------------------------
    def heap_bytes(self) -> int:
        """Total bytes currently under heap-block management."""
        return sum(b.size for b in self._blocks.values())

    def free_bytes(self) -> int:
        """Bytes in free blocks (bin + fastbins)."""
        return sum(b.size for b in self._blocks.values() if b.free or b.in_fastbin)
