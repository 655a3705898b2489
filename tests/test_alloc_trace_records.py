"""The Abinit-like trace generator against its scalar-draw reference.

:func:`repro.alloc.traces.abinit_like_records` draws each size class of
an iteration as one block of bounded integers.  The reference below is
the one-draw-per-allocation generator it replaced; both must yield the
same records in the same order, and :func:`abinit_like_trace` must wrap
exactly those records.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.alloc.traces import (
    KB,
    MB,
    TraceOp,
    abinit_like_records,
    abinit_like_trace,
)


def scalar_reference(iterations=30, large_arrays=6, large_size=8 * MB,
                     medium_per_iter=12, small_per_iter=120, seed=42):
    """One scalar ``rng.integers`` call per allocation, in trace order."""
    rng = np.random.default_rng(seed)
    trace = []
    handle = 0

    def nxt():
        nonlocal handle
        handle += 1
        return handle

    for _ in range(4):
        trace.append(("malloc", nxt(), int(rng.integers(2 * MB, 24 * MB))))
    for _ in range(iterations):
        scope = []
        for _ in range(large_arrays):
            h = nxt()
            trace.append(("malloc", h, large_size))
            scope.append(h)
        for _ in range(medium_per_iter):
            h = nxt()
            trace.append(("malloc", h, int(rng.integers(64 * KB, 512 * KB))))
            scope.append(h)
        for _ in range(small_per_iter):
            h = nxt()
            trace.append(("malloc", h, int(rng.integers(32, 32 * KB))))
            scope.append(h)
        for h in reversed(scope):
            trace.append(("free", h, 0))
    return trace


@pytest.mark.parametrize("iterations", [1, 2, 5])
def test_records_match_scalar_reference(iterations):
    for seed in range(50):
        expected = scalar_reference(iterations=iterations, seed=seed)
        records = abinit_like_records(iterations=iterations, seed=seed)
        assert records == expected, seed
        assert all(type(size) is int for _op, _h, size in records)
        assert abinit_like_trace(iterations=iterations, seed=seed) == [
            TraceOp(*rec) for rec in expected]


@pytest.mark.parametrize("config", [
    dict(large_arrays=2, large_size=3 * MB, medium_per_iter=5,
         small_per_iter=17),
    dict(medium_per_iter=0),
    dict(small_per_iter=0),
    dict(large_arrays=0, medium_per_iter=0, small_per_iter=0),
    dict(large_arrays=0, medium_per_iter=1, small_per_iter=1),
])
def test_non_default_counts_match_scalar_reference(config):
    for seed in (0, 7, 42):
        for iterations in (1, 3):
            expected = scalar_reference(iterations=iterations, seed=seed,
                                        **config)
            assert abinit_like_records(iterations=iterations, seed=seed,
                                       **config) == expected
            assert abinit_like_trace(iterations=iterations, seed=seed,
                                     **config) == [TraceOp(*r) for r in expected]


def test_each_call_returns_a_fresh_list():
    first = abinit_like_records(iterations=1, seed=3)
    first.clear()
    assert len(abinit_like_records(iterations=1, seed=3)) == 280


def test_negative_counts_rejected():
    with pytest.raises(ValueError):
        abinit_like_records(iterations=1, medium_per_iter=-1)
    with pytest.raises(ValueError):
        abinit_like_records(iterations=0)
