"""NAS EP: embarrassingly parallel gaussian-pair generation.

Almost no communication (a handful of final reductions), so EP's Fig 6
behaviour is dominated by computation.  Its memory personality is the
interesting part: the inner loop touches *many distinct small tables*
(per-annulus counters, scratch blocks, the multiplier tables) in
rotation — more concurrent regions than the Opteron's **8** hugepage TLB
entries, so preloading the library multiplies TLB misses "up to eight
times" (§5.2) even while the long sequential sweeps over the random-pair
buffer get faster from hugepage physical contiguity.

Functional payload: real Marsaglia-style pair acceptance counting with
numpy, reduced across ranks and verified against a locally recomputed
reference.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, Generator, List, Tuple

import numpy as np

from repro.workloads.nas.common import KB, MB


@dataclass(frozen=True)
class EPParams:
    """Per-class scaling."""

    blocks: int          # outer blocks (each = one timed compute phase)
    pair_buffer_mb: int  # streamed random-number buffer
    tables: int          # distinct scratch/counter regions in rotation
    table_kb: int
    rotate_switches: int
    pairs_mini: int      # real pairs generated per block for verification


CLASSES: Dict[str, EPParams] = {
    "W": EPParams(blocks=4, pair_buffer_mb=4, tables=16, table_kb=64,
                  rotate_switches=13_000, pairs_mini=4_000),
    "B": EPParams(blocks=12, pair_buffer_mb=12, tables=16, table_kb=64,
                  rotate_switches=65_000, pairs_mini=8_000),
    "C": EPParams(blocks=24, pair_buffer_mb=16, tables=16, table_kb=64,
                  rotate_switches=85_000, pairs_mini=10_000),
}


def _gaussian_block(rank: int, block: int,
                    pairs: int) -> Tuple[float, float, np.ndarray]:
    """One rank's block of real gaussian pairs: the x and y sums and the
    per-annulus acceptance counts."""
    rng = np.random.default_rng(777 + rank * 1000 + block)
    u = rng.uniform(-1.0, 1.0, size=(pairs, 2))
    t = np.sum(u * u, axis=1)
    accept = t <= 1.0
    tt = t[accept]
    factor = np.sqrt(-2.0 * np.log(tt) / tt)
    gx = u[accept, 0] * factor
    gy = u[accept, 1] * factor
    mag = np.maximum(np.abs(gx), np.abs(gy)).astype(np.int64)
    return (float(gx.sum()), float(gy.sum()),
            np.bincount(np.minimum(mag, 9), minlength=10))


@functools.lru_cache(maxsize=None)
def _reference(size: int, blocks: int,
               pairs: int) -> Tuple[np.ndarray, float, float]:
    """The whole world's counts and sums, summed rank by rank and block
    by block as a sequential run would.  A pure function of its
    arguments, so every rank of every run with this shape shares one
    computation; the counts come back read-only."""
    counts = np.zeros(10, dtype=np.int64)
    sx = sy = 0.0
    for r in range(size):
        for block in range(blocks):
            bx, by, bcounts = _gaussian_block(r, block, pairs)
            sx += bx
            sy += by
            counts += bcounts
    counts.flags.writeable = False
    return counts, sx, sy


def program(comm, klass: str = "W") -> Generator:
    """EP rank program; returns ``{"verified": bool, ...}``."""
    p = CLASSES[klass]
    proc = comm.proc

    pair_buffer = proc.malloc(int(p.pair_buffer_mb * MB * 1.1) + 4096)
    tables: List[int] = [proc.malloc(p.table_kb * KB) for _ in range(p.tables)]

    counts = np.zeros(10, dtype=np.int64)
    sx = sy = 0.0

    # the original deals seed blocks unevenly; the last rank sweeps ~10 %
    # more (this imbalance is what the final reductions wait out)
    imbalance = 1.0 + 0.1 * comm.rank / max(1, comm.size - 1)

    for block in range(p.blocks):
        # compute personality: long sweep + many-table rotation
        cost = proc.engine.stream(pair_buffer, int(p.pair_buffer_mb * MB * imbalance))
        cost = cost + proc.engine.rotate(
            [(t, p.table_kb * KB) for t in tables], p.rotate_switches, 256
        )
        yield from comm.compute(cost)

        # real gaussian-pair work (seeded per rank and block)
        bx, by, bcounts = _gaussian_block(comm.rank, block, p.pairs_mini)
        sx += bx
        sy += by
        counts += bcounts

    # final reductions: the only communication EP does
    total_counts = yield from comm.allreduce(
        80, value=counts, op=lambda a, b: a + b
    )
    total_sx = yield from comm.allreduce(8, value=sx)
    total_sy = yield from comm.allreduce(8, value=sy)

    # verification: the global reference, recomputed independently of
    # the reduction (once per process and shape, see _reference)
    ref_counts, ref_sx, ref_sy = _reference(comm.size, p.blocks, p.pairs_mini)
    verified = bool(
        np.array_equal(total_counts, ref_counts)
        and abs(total_sx - ref_sx) < 1e-6
        and abs(total_sy - ref_sy) < 1e-6
    )
    return {"verified": verified, "gaussian_pairs": int(total_counts.sum())}


program.kernel_name = "EP"
