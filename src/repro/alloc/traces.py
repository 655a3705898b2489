"""Allocation traces: generation and replay.

The paper instruments applications and reports "allocation benefits of up
to 10 times with our library (e.g. for Abinit)" (§2) and a 1.5 % Abinit
runtime improvement from allocator time alone (§3.2 item 2).  Abinit is a
plane-wave DFT code: each SCF iteration allocates a family of large work
arrays (wavefunction/FFT scratch), uses them, and frees them — the exact
"allocate and deallocate buffers with the same size in a short time
frame" pattern §3.2 item 5 targets — plus steady small-object churn.

:func:`abinit_like_records` generates such a trace deterministically as
plain tuples, and :func:`abinit_like_trace` wraps the same records in
:class:`TraceOp`; :func:`replay` runs any trace against any allocator and
reports the simulated allocator time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.alloc.base import Allocator

KB = 1024
MB = 1024 * 1024


@dataclass(frozen=True)
class TraceOp:
    """One trace record: ``malloc`` (with size) or ``free`` of a handle."""

    op: str  # "malloc" | "free"
    handle: int
    size: int = 0

    def __post_init__(self):
        if self.op not in ("malloc", "free"):
            raise ValueError(f"unknown trace op {self.op!r}")
        if self.op == "malloc" and self.size <= 0:
            raise ValueError("malloc trace op needs a positive size")


@dataclass
class ReplayResult:
    """Outcome of replaying a trace against one allocator."""

    allocator: str
    mallocs: int = 0
    frees: int = 0
    alloc_ns: float = 0.0
    free_ns: float = 0.0
    peak_bytes: int = 0

    @property
    def total_ns(self) -> float:
        """Total simulated allocator time."""
        return self.alloc_ns + self.free_ns


#: one plain trace record, ``(op, handle, size)``; *size* is 0 on a free
Record = Tuple[str, int, int]


def abinit_like_records(
    iterations: int = 30,
    large_arrays: int = 6,
    large_size: int = 8 * MB,
    medium_per_iter: int = 12,
    small_per_iter: int = 120,
    seed: int = 42,
) -> List[Record]:
    """Generate a deterministic Abinit-like allocation trace as plain
    ``(op, handle, size)`` records.

    Structure:

    - a persistent base working set allocated up front and never freed
      during the run (density/potential grids),
    - per SCF iteration: *large_arrays* same-size large temporaries,
      *medium_per_iter* medium scratch buffers (64–512 KB) and
      *small_per_iter* small objects (< 32 KB), all freed at iteration
      end (LIFO, like stack-of-scopes Fortran allocation).

    Each size class of an iteration is one block draw.  PCG64 keeps the
    spare half of a 64-bit output between calls, so a block of *n*
    bounded draws yields the same values as *n* scalar draws in a row.
    """
    if iterations <= 0:
        raise ValueError("iterations must be positive")
    if min(large_arrays, medium_per_iter, small_per_iter) < 0:
        raise ValueError("per-iteration array counts must be non-negative")
    integers = np.random.default_rng(seed).integers
    # persistent working set
    records: List[Record] = [
        ("malloc", h, size)
        for h, size in enumerate(integers(2 * MB, 24 * MB, size=4).tolist(), 1)
    ]
    handle = len(records)
    for _ in range(iterations):
        sizes = (
            [large_size] * large_arrays
            + integers(64 * KB, 512 * KB, size=medium_per_iter).tolist()
            + integers(32, 32 * KB, size=small_per_iter).tolist()
        )
        first = handle + 1
        handle += len(sizes)
        records += [("malloc", h, size) for h, size in enumerate(sizes, first)]
        records += [("free", h, 0) for h in range(handle, first - 1, -1)]
    return records


def abinit_like_trace(
    iterations: int = 30,
    large_arrays: int = 6,
    large_size: int = 8 * MB,
    medium_per_iter: int = 12,
    small_per_iter: int = 120,
    seed: int = 42,
) -> List[TraceOp]:
    """:func:`abinit_like_records` as validated :class:`TraceOp` records,
    the form :func:`replay` takes."""
    return [
        TraceOp(op, handle, size)
        for op, handle, size in abinit_like_records(
            iterations, large_arrays, large_size, medium_per_iter,
            small_per_iter, seed)
    ]


def replay(trace: List[TraceOp], allocator: Allocator) -> ReplayResult:
    """Run *trace* against *allocator*, accumulating simulated time."""
    result = ReplayResult(allocator=allocator.name)
    pointers: Dict[int, int] = {}
    for op in trace:
        if op.op == "malloc":
            before = allocator.stats.malloc_ns
            pointers[op.handle] = allocator.malloc(op.size)
            result.alloc_ns += allocator.stats.malloc_ns - before
            result.mallocs += 1
        else:
            vaddr = pointers.pop(op.handle, None)
            if vaddr is None:
                raise ValueError(f"trace frees unknown handle {op.handle}")
            before = allocator.stats.free_ns
            allocator.free(vaddr)
            result.free_ns += allocator.stats.free_ns - before
            result.frees += 1
        result.peak_bytes = max(result.peak_bytes, allocator.stats.current_bytes)
    return result

