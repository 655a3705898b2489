"""Allocators.

The paper's contribution is a preloadable allocation library that places
large buffers in hugepages (§3).  This package implements it together
with every allocator it is compared against:

- :mod:`repro.alloc.libc` — a glibc-like general-purpose allocator
  (binned free lists, boundary tags, coalescing, ``morecore()``/``mmap``).
- :mod:`repro.alloc.freelist` — the address-ordered first-fit chunk
  allocator the paper's management layer uses (§3.2 items 2-5).
- :mod:`repro.alloc.hugepage_lib` — the paper's three-layer library (§3.1).
- :mod:`repro.alloc.libhugetlbfs` — the ``morecore()``-wrapping baseline.
- :mod:`repro.alloc.libhugepagealloc` — the one-hugepage-per-buffer
  baseline.
- :mod:`repro.alloc.traces` — allocation-trace generation and replay
  (the Abinit ×10 measurement).

All allocators implement the :class:`~repro.alloc.base.Allocator`
interface, operate on a simulated :class:`~repro.mem.AddressSpace`, and
charge simulated nanoseconds for their own work so allocator efficiency
shows up in application runtimes.
"""

from repro.alloc.base import AllocationError, Allocator, AllocatorCostModel, AllocStats
from repro.alloc.freelist import ChunkFreeList, FreeExtent
from repro.alloc.hugepage_lib import HugepageLibraryAllocator, HugepageLibraryConfig
from repro.alloc.libc import LibcAllocator
from repro.alloc.libhugepagealloc import LibhugepageallocAllocator
from repro.alloc.libhugetlbfs import LibhugetlbfsAllocator
from repro.alloc.traces import (
    ReplayResult,
    TraceOp,
    abinit_like_trace,
    replay,
)

__all__ = [
    "AllocStats",
    "AllocationError",
    "Allocator",
    "AllocatorCostModel",
    "ChunkFreeList",
    "FreeExtent",
    "HugepageLibraryAllocator",
    "HugepageLibraryConfig",
    "LibcAllocator",
    "LibhugepageallocAllocator",
    "LibhugetlbfsAllocator",
    "ReplayResult",
    "TraceOp",
    "abinit_like_trace",
    "replay",
]
