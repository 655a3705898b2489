"""Address-ordered first-fit free list over fixed-size chunks.

This is the data structure of the paper's management layer, built to its
§3.2 specification:

2. *address-ordered first fit* — "shows best performance values due to a
   good locality (see [12])" (Wilson et al.'s allocator survey);
4. fixed **4 KB chunks** — "simplifies the memory management data
   structures and ensures a fast access in a complexity of O(1)";
5. **no coalescing on free()** — "avoids useless coalescing/splitting
   patterns, when applications allocate and deallocate buffers with the
   same size in a short time frame".  Fragmented lists are repaired by an
   explicit on-demand :meth:`ChunkFreeList.coalesce` pass (run when a fit
   cannot be found), which keeps the common path branch-free.

Extents are kept in a dense sorted list (the paper's item 3: metadata
lives in a cache created at initialisation, not in per-buffer headers),
so traversal is cheap; the cost model reflects that with the packed node
visit price.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import List, Optional, Tuple

#: chunk granularity (bytes) — §3.2 item 4
CHUNK_SIZE = 4096


@dataclass(frozen=True)
class FreeExtent:
    """A run of free chunks: ``[start, start + n_chunks * CHUNK_SIZE)``.

    *start* is a virtual address, always chunk-aligned.
    """

    start: int
    n_chunks: int

    @property
    def end(self) -> int:
        """One past the extent's last byte."""
        return self.start + self.n_chunks * CHUNK_SIZE

    def __post_init__(self):
        if self.start % CHUNK_SIZE:
            raise ValueError(f"extent start {self.start:#x} not chunk-aligned")
        if self.n_chunks <= 0:
            raise ValueError(f"extent needs positive chunk count, got {self.n_chunks}")


class ChunkFreeList:
    """The management layer's free list.

    All mutating operations return the number of extents *visited*, which
    the caller converts into simulated time — the data structure itself is
    the cost model's input.
    """

    def __init__(self) -> None:
        self._starts: List[int] = []  # sorted extent start addresses
        self._extents: List[FreeExtent] = []  # parallel to _starts

    # -- introspection ----------------------------------------------------
    def __len__(self) -> int:
        return len(self._extents)

    @property
    def extents(self) -> Tuple[FreeExtent, ...]:
        """Snapshot of extents in address order."""
        return tuple(self._extents)

    @property
    def free_chunks(self) -> int:
        """Total free chunks across all extents."""
        return sum(e.n_chunks for e in self._extents)

    def invariant_ok(self) -> bool:
        """True when extents are sorted, aligned and non-overlapping."""
        for a, b in zip(self._extents, self._extents[1:]):
            if a.end > b.start:
                return False
        return self._starts == [e.start for e in self._extents]

    # -- snapshot view ----------------------------------------------------
    def dump_state(self) -> list:
        """Picklable snapshot: ``(start, n_chunks)`` in address order."""
        return [(e.start, e.n_chunks) for e in self._extents]

    # -- allocation ----------------------------------------------------------
    def take_first_fit(self, n_chunks: int) -> Tuple[Optional[int], int]:
        """Address-ordered first fit for *n_chunks*.

        Returns ``(vaddr, visited)``; *vaddr* is None when nothing fits.
        A fitting extent is consumed from its front; any remainder stays
        in place (a split, never a merge).
        """
        if n_chunks <= 0:
            raise ValueError(f"need positive chunk count, got {n_chunks}")
        for i, extent in enumerate(self._extents):
            if extent.n_chunks >= n_chunks:
                vaddr = extent.start
                if extent.n_chunks == n_chunks:
                    del self._extents[i]
                    del self._starts[i]
                else:
                    rest = FreeExtent(
                        start=extent.start + n_chunks * CHUNK_SIZE,
                        n_chunks=extent.n_chunks - n_chunks,
                    )
                    self._extents[i] = rest
                    self._starts[i] = rest.start
                return vaddr, i + 1
        return None, len(self._extents)

    def take_best_fit(self, n_chunks: int) -> Tuple[Optional[int], int]:
        """Best fit (ablation alternative to the paper's first fit).

        Scans every extent for the tightest fit; returns ``(vaddr,
        visited)`` with ``visited == len(self)`` since best fit cannot
        stop early.
        """
        if n_chunks <= 0:
            raise ValueError(f"need positive chunk count, got {n_chunks}")
        best_i = -1
        best_n = None
        for i, extent in enumerate(self._extents):
            if extent.n_chunks >= n_chunks and (
                best_n is None or extent.n_chunks < best_n
            ):
                best_i, best_n = i, extent.n_chunks
        visited = max(1, len(self._extents))
        if best_i < 0:
            return None, visited
        extent = self._extents[best_i]
        vaddr = extent.start
        if extent.n_chunks == n_chunks:
            del self._extents[best_i]
            del self._starts[best_i]
        else:
            rest = FreeExtent(
                start=extent.start + n_chunks * CHUNK_SIZE,
                n_chunks=extent.n_chunks - n_chunks,
            )
            self._extents[best_i] = rest
            self._starts[best_i] = rest.start
        return vaddr, visited

    def insert(self, start: int, n_chunks: int) -> int:
        """Insert a freed extent at its address-ordered position, without
        coalescing (§3.2 item 5).  Returns the probe count (a binary
        search through the packed array)."""
        extent = FreeExtent(start=start, n_chunks=n_chunks)
        i = bisect.bisect_left(self._starts, start)
        # reject overlap with neighbours (double free / corruption)
        if i > 0 and self._extents[i - 1].end > start:
            raise ValueError(f"extent {start:#x} overlaps predecessor")
        if i < len(self._extents) and extent.end > self._extents[i].start:
            raise ValueError(f"extent {start:#x} overlaps successor")
        self._starts.insert(i, start)
        self._extents.insert(i, extent)
        # log2-ish probe count for the bisect plus the insertion shift
        return max(1, len(self._extents).bit_length())

    # -- on-demand coalescing ----------------------------------------------------
    def coalesce(self) -> Tuple[int, int]:
        """Merge all adjacent extents in one pass.

        Returns ``(merges, visited)``.  Run when first fit fails; the
        address-ordered invariant makes this a single linear sweep.
        """
        if not self._extents:
            return 0, 0
        merged: List[FreeExtent] = [self._extents[0]]
        merges = 0
        for extent in self._extents[1:]:
            last = merged[-1]
            if last.end == extent.start:
                merged[-1] = FreeExtent(
                    start=last.start, n_chunks=last.n_chunks + extent.n_chunks
                )
                merges += 1
            else:
                merged.append(extent)
        visited = len(self._extents)
        self._extents = merged
        self._starts = [e.start for e in merged]
        return merges, visited

    # -- helpers ----------------------------------------------------------------
    @staticmethod
    def chunks_for(nbytes: int) -> int:
        """Chunks needed to hold *nbytes*."""
        if nbytes <= 0:
            raise ValueError(f"nbytes must be positive, got {nbytes}")
        return (nbytes + CHUNK_SIZE - 1) // CHUNK_SIZE
