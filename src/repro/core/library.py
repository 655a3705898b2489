"""Preloading the hugepage library onto a process.

The paper's library "can be preloaded for applications at load time"
(abstract) — an ``LD_PRELOAD`` interposition that swaps the allocation
functions underneath an unmodified application.  The simulated
equivalent: :func:`preload_hugepage_library` replaces an
:class:`~repro.systems.machine.OSProcess`'s active allocator with a
:class:`~repro.alloc.hugepage_lib.HugepageLibraryAllocator` stacked on
the process's existing libc allocator, so

- allocations the application already holds stay valid (libc still owns
  them; the facade routes frees to the right owner),
- everything the application allocates from now on follows the paper's
  placement policy (≥ 32 KB → hugepages).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.alloc.hugepage_lib import HugepageLibraryAllocator, HugepageLibraryConfig
from repro.systems.machine import OSProcess


@dataclass
class PreloadedLibrary:
    """Handle returned by :func:`preload_hugepage_library`."""

    proc: OSProcess
    allocator: HugepageLibraryAllocator


def preload_hugepage_library(
    proc: OSProcess, config: Optional[HugepageLibraryConfig] = None
) -> PreloadedLibrary:
    """Interpose the hugepage library on *proc* (see module docstring).

    Idempotent per process: preloading twice returns a handle to the
    existing interposition rather than stacking facades.
    """
    if isinstance(proc.allocator, HugepageLibraryAllocator):
        return PreloadedLibrary(proc=proc, allocator=proc.allocator)
    lib = HugepageLibraryAllocator(
        proc.aspace,
        libc=proc.libc,
        config=config,
        cost_model=proc.spec.alloc_costs,
        counters=proc.counters,
    )
    proc.allocator = lib
    return PreloadedLibrary(proc=proc, allocator=lib)
