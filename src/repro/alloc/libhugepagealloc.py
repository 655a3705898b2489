"""The libhugepagealloc baseline: one hugepage mapping per buffer.

The first library discussed in §2: "not thread safe and does not assure
locality between allocated buffers since every buffer is mapped into a
separate hugepage".  We reproduce that placement policy: every request is
served from a *fresh* private hugetlbfs mapping sized up to whole
hugepages, so

- a 100-byte buffer consumes a full 2 MB hugepage (pool pressure),
- no two buffers share a hugepage (no locality, nothing for a prefetch
  stream to ride across buffers),
- each allocation pays the full map + populate cost, and each free the
  unmap cost.

Thread-unsafety is modelled as a flag (:attr:`thread_safe`); the
simulation is single-threaded, but components that would run the
allocator concurrently (e.g. a threaded MPI progress engine) check it and
refuse.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.alloc.base import AllocationError, Allocator, AllocatorCostModel
from repro.mem.address_space import AddressSpace
from repro.mem.physical import PAGE_2M


class LibhugepageallocAllocator(Allocator):
    """One private hugepage mapping per allocation (see module docstring)."""

    name = "libhugepagealloc"
    #: the real library is documented as not thread safe (§2)
    thread_safe = False

    def __init__(
        self,
        aspace: AddressSpace,
        cost_model: Optional[AllocatorCostModel] = None,
        counters=None,
    ):
        super().__init__(cost_model, counters)
        self.aspace = aspace
        self._vmas: Dict[int, int] = {}  # payload vaddr -> vma start

    def _malloc(self, size: int) -> Tuple[int, float]:
        n_pages = (size + PAGE_2M - 1) // PAGE_2M
        vma = self.aspace.mmap(
            n_pages * PAGE_2M, page_size=PAGE_2M, name="libhugepagealloc"
        )
        ns = self.cost.syscall_ns + self.cost.populate_ns(PAGE_2M, n_pages)
        self._vmas[vma.start] = vma.start
        return vma.start, ns

    def _free(self, vaddr: int, size: int) -> float:
        start = self._vmas.pop(vaddr, None)
        if start is None:
            raise AllocationError(f"unknown pointer {vaddr:#x}")
        self.aspace.munmap(start)
        return self.cost.syscall_ns
