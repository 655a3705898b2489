"""HugeTLBfs: the kernel hugepage pool.

Linux exposes boot-reserved 2 MB pages through the ``hugetlbfs``
pseudo-filesystem; since kernel 2.6.16 they can be mapped privately, which
is what makes the paper's *transparent* use possible.  This module models
the pool: acquiring/releasing hugepage frames, and accounting so a client
(the library's mapping layer) can keep a fork/Copy-on-Write reserve.
"""

from __future__ import annotations

from typing import List, Optional

from repro.faults import FaultInjector
from repro.mem.physical import OutOfMemoryError, PhysicalMemory


class HugePagePoolExhausted(OutOfMemoryError):
    """Raised when a hugepage request cannot be satisfied from the pool."""


class HugeTLBfs:
    """The mounted hugetlbfs: a view onto the boot-time hugepage pool.

    Parameters
    ----------
    physical:
        The machine's :class:`~repro.mem.physical.PhysicalMemory`, whose
        hugepage pool backs this filesystem.
    faults:
        Optional :class:`~repro.faults.FaultInjector`; when its plan sets
        ``hugepage_deplete_after``, the pool seizes mid-run as if other
        processes drained ``nr_hugepages``.
    """

    def __init__(self, physical: PhysicalMemory,
                 faults: Optional[FaultInjector] = None):
        self.physical = physical
        self._acquired = 0
        self.faults = faults if (faults is not None and faults.active) else None

    # -- accounting ---------------------------------------------------------
    @property
    def total_pages(self) -> int:
        """Pool size (``nr_hugepages``)."""
        return self.physical.total_hugepages

    @property
    def free_pages(self) -> int:
        """Hugepages currently available."""
        return self.physical.free_hugepages

    # -- allocation -----------------------------------------------------------
    def acquire(self, n_pages: int, keep_reserve: int = 0) -> List[int]:
        """Take *n_pages* hugepage frames from the pool.

        *keep_reserve* refuses the request if it would leave fewer than
        that many pages free — the paper's mapping layer "must leave a
        reserve of hugepages that are needed when forking processes for
        Copy-on-Write reasons" (§3.1).

        Returns the list of physical frame addresses; the operation is
        atomic (all-or-nothing).
        """
        if n_pages <= 0:
            raise ValueError(f"n_pages must be positive, got {n_pages}")
        if keep_reserve < 0:
            raise ValueError(f"keep_reserve must be >= 0, got {keep_reserve}")
        if self.faults is not None and self.faults.hugepage_request_denied():
            raise HugePagePoolExhausted(
                f"need {n_pages} hugepages, but the pool has been depleted "
                "mid-run (fault injection: other processes drained "
                "nr_hugepages)"
            )
        if self.free_pages - n_pages < keep_reserve:
            raise HugePagePoolExhausted(
                f"need {n_pages} hugepages with reserve {keep_reserve}, "
                f"only {self.free_pages} free"
            )
        return [self.physical.alloc_hugepage() for _ in range(n_pages)]

    def release(self, frames: List[int]) -> None:
        """Return hugepage frames to the pool."""
        for paddr in frames:
            self.physical.free_hugepage(paddr)

    def notice_acquired(self, n_pages: int) -> None:
        """Bookkeeping hook: record pages mapped into an address space."""
        self._acquired += n_pages

    def notice_released(self, n_pages: int) -> None:
        """Bookkeeping hook: record pages unmapped from an address space."""
        self._acquired -= n_pages
        if self._acquired < 0:
            raise ValueError("released more hugepages than were acquired")
