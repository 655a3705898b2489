"""The libhugetlbfs baseline: libc with ``morecore()`` rebound to hugepages.

The second library discussed in §2 "wraps the internal libc function
morecore()", with two drawbacks the paper calls out:

1. *every* buffer the libc allocator hands out lives in hugepages —
   including tiny ones — which matters for TLB-miss behaviour on parts
   with few hugepage TLB entries;
2. the libc allocator still manages all requests, so its general-purpose
   bin machinery (and its thrashing patterns) are unchanged.

We reproduce exactly that: a :class:`~repro.alloc.libc.LibcAllocator`
whose growth callback maps hugetlbfs memory and whose mmap path is
disabled (real libhugetlbfs sets ``M_MMAP_MAX=0`` so everything flows
through morecore).
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.alloc.base import AllocatorCostModel
from repro.alloc.libc import LibcAllocator
from repro.mem.address_space import AddressSpace
from repro.mem.physical import PAGE_2M, align_up


class HugeMorecore:
    """``morecore()`` backed by private hugetlbfs mappings.

    Each growth maps a fresh hugepage VMA (regions are not virtually
    contiguous, so the heap becomes a set of hugepage arenas — matching
    real libhugetlbfs behaviour where the hugepage heap lives in its own
    region).
    """

    page_size = PAGE_2M

    def __init__(
        self,
        aspace: AddressSpace,
        cost: AllocatorCostModel,
        keep_hugepage_reserve: int = 0,
    ):
        self.aspace = aspace
        self.cost = cost
        self.keep_hugepage_reserve = keep_hugepage_reserve

    def extend(self, nbytes: int) -> Tuple[int, int, float]:
        """Map hugepages; returns ``(start, length, cost_ns)``."""
        length = align_up(nbytes, PAGE_2M)
        vma = self.aspace.mmap(
            length,
            page_size=PAGE_2M,
            name="libhugetlbfs-heap",
            keep_hugepage_reserve=self.keep_hugepage_reserve,
        )
        ns = self.cost.syscall_ns + self.cost.populate_ns(PAGE_2M, length // PAGE_2M)
        return vma.start, length, ns

    def shrink(self, nbytes: int) -> Tuple[int, float]:
        """Hugepage heaps are never trimmed (the real library keeps
        them): nothing is released."""
        return 0, 0.0


class LibhugetlbfsAllocator(LibcAllocator):
    """libc allocator on a hugepage-backed heap (see module docstring)."""

    name = "libhugetlbfs"

    def __init__(
        self,
        aspace: AddressSpace,
        cost_model: Optional[AllocatorCostModel] = None,
        counters=None,
        keep_hugepage_reserve: int = 0,
    ):
        cost = cost_model if cost_model is not None else AllocatorCostModel()
        super().__init__(
            aspace,
            cost_model=cost,
            counters=counters,
            morecore=HugeMorecore(aspace, cost, keep_hugepage_reserve),
            use_mmap=False,
        )
