"""The fast-path switch: batched/closed-form costing vs reference loops.

The simulator keeps two implementations of every hot costing routine:

- a **reference path** that walks structures element by element (per
  cache line, per page, per translation entry) through the stateful
  hardware models — simple to audit, and the behaviour every test and
  figure was originally validated against;
- a **fast path** that computes the same result in bulk: LRU sweeps are
  costed run by run on :class:`RunLRU` (the run-length LRU state the
  TLB, data cache and ATT keep), page walks are read from the page
  table's run arrays, and counters are updated once per phase instead
  of once per element.

Both paths are required to be *equivalent*: identical reported ticks,
identical counter values, identical model state afterwards (TLB/cache/
ATT residency, LRU order, pin counts).  ``tests/test_fastpath_
equivalence.py`` enforces this property-style; ``docs/performance.md``
documents the contract.

This module owns the global toggle and :class:`RunLRU`.  The fast path
is ON by default; it can be disabled

- programmatically: :func:`set_enabled` / :func:`disabled`,
- from the CLI: every ``repro`` command accepts ``--no-fastpath``,
- from the environment: ``REPRO_NO_FASTPATH=1``.

The flag is read through :func:`enabled` on every fast-path entry, so
flipping it mid-run is safe (each phase is costed wholly on one path).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, List, Tuple

_enabled: bool = os.environ.get("REPRO_NO_FASTPATH", "").strip().lower() not in (
    "1",
    "true",
    "yes",
    "on",
)


def enabled() -> bool:
    """True while the batched fast paths are active."""
    return _enabled


def set_enabled(flag: bool) -> None:
    """Turn the fast paths on or off globally."""
    global _enabled
    _enabled = bool(flag)


@contextmanager
def disabled() -> Iterator[None]:
    """Context manager: run the body on the reference paths."""
    global _enabled
    prior = _enabled
    _enabled = False
    try:
        yield
    finally:
        _enabled = prior


@contextmanager
def forced(flag: bool) -> Iterator[None]:
    """Context manager: pin the fast-path switch to *flag* for the body."""
    global _enabled
    prior = _enabled
    _enabled = bool(flag)
    try:
        yield
    finally:
        _enabled = prior


# ---------------------------------------------------------------------------
# run-length LRU state
# ---------------------------------------------------------------------------

class RunLRU:
    """Fully-associative LRU content stored as runs of grid keys.

    The TLB arrays, the data cache and the ATT cache all keep their
    content here.  Resident keys live in ``[tag, first, n]`` runs, oldest
    run first: a run holds the keys ``first, first + stride, ...,
    first + (n - 1) * stride`` of one *tag*, and inside a run recency
    ascends with the key.  Keys are multiples of *stride*.  Every costing
    walk the simulator makes is an arithmetic key sequence (the pages of
    a sweep, the lines of a physical span, the entries of a DMA), so the
    content stays a handful of runs however many keys it holds.

    :meth:`sweep` is exact against the key-by-key replay::

        for key in keys:
            if key in lru: lru.move_to_end(key)              # hit
            else:                                            # miss
                while len(lru) >= capacity: lru.popitem(last=False)
                lru[key] = True

    It counts hits from stack distances (Mattson et al., 1970): a resident
    key hits when fewer than ``capacity`` distinct keys were used since
    its last use.  For a swept key of run *r* those are the keys in runs
    newer than *r*, the keys of *r* after it, and the keys swept before
    it, less the newer-run keys among those.  Runs of one grid are
    contiguous and disjoint, so the distance is the same for every swept
    key of a run: a run hits or misses whole, and a sweep walks the runs,
    not the keys.

    The runs stay canonical (no run continues the run before it: same
    tag, next grid key), so equal contents always have equal runs.
    """

    __slots__ = ("capacity", "stride", "_runs", "_size")

    def __init__(self, capacity: int, stride: int = 1) -> None:
        if capacity < 1:
            raise ValueError(f"LRU capacity must be at least 1, got {capacity}")
        self.capacity = capacity
        self.stride = stride
        self._runs: list = []  # [tag, first, n], oldest first
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def access(self, key: int, tag: int = 0) -> bool:
        """Use one key; True on a hit.  The same as ``sweep(key, 1, tag)``
        without the distance bookkeeping: a resident key always hits,
        so this finds its run, cuts it out and appends it."""
        runs = self._runs
        stride = self.stride
        pos = len(runs)
        for run in reversed(runs):
            pos -= 1
            if run[0] == tag and run[1] <= key < run[1] + run[2] * stride:
                break
        else:
            # a miss: append the key; a full LRU drops its oldest key
            self._append(tag, key, 1)
            if self._size < self.capacity:
                self._size += 1
            elif runs[0][2] == 1:
                del runs[0]
            else:
                runs[0][1] += stride
                runs[0][2] -= 1
            return False
        if pos == len(runs) - 1 and key == run[1] + (run[2] - 1) * stride:
            return True  # the MRU key: the order is unchanged
        self._cut(pos, key, key + stride)
        self._append(tag, key, 1)
        return True

    def sweep(self, first: int, n: int, tag: int = 0) -> int:
        """Use the *n* keys ``first, first + stride, ...`` of *tag* in
        order; returns the hit count (the rest missed)."""
        stride = self.stride
        runs = self._runs
        end = first + n * stride
        for t, f, m in runs:
            if t == tag and f < end and first < f + m * stride:
                hits, resident = self._sweep_resident(first, end, tag)
                break
        else:  # no swept key is resident: all miss, nothing to cut
            hits = resident = 0
        self._append(tag, first, n)
        size = self._size - resident + n
        excess = size - self.capacity
        if excess > 0:
            drop = 0
            for run in runs:
                if run[2] > excess:
                    break
                excess -= run[2]
                drop += 1
            del runs[:drop]
            if excess:
                runs[0][1] += excess * stride
                runs[0][2] -= excess
            size = self.capacity
        self._size = size
        return hits

    def _sweep_resident(self, first: int, end: int, tag: int) -> Tuple[int, int]:
        """The resident part of a sweep over ``first .. end - stride``:
        count its hits, cut it out of the runs; returns (hits, resident
        keys swept)."""
        stride = self.stride
        runs = self._runs
        hits = resident = newer = 0
        swept = []  # (lo, count) of the swept part of each newer run
        cuts = []  # (pos, lo, hi) of each run the sweep meets, newest first
        for pos in range(len(runs) - 1, -1, -1):
            t, f, m = runs[pos]
            if t == tag and f < end:
                rend = f + m * stride
                if first < rend:
                    lo = f if f > first else first
                    hi = rend if rend < end else end
                    count = (hi - lo) // stride
                    distance = newer + (rend - lo) // stride - 1 + (lo - first) // stride
                    for swept_lo, swept_count in swept:
                        if swept_lo < lo:
                            distance -= swept_count
                    if distance < self.capacity:
                        hits += count
                    resident += count
                    swept.append((lo, count))
                    cuts.append((pos, lo, hi))
            newer += m
        # highest position first, so each cut leaves the positions still
        # to visit in place
        for pos, lo, hi in cuts:
            self._cut(pos, lo, hi)
        return hits, resident

    def _append(self, tag: int, first: int, n: int) -> None:
        """Make *n* keys from *first* the MRU run, merged into the old
        MRU run when they continue it."""
        runs = self._runs
        if runs:
            last = runs[-1]
            if last[0] == tag and last[1] + last[2] * self.stride == first:
                last[2] += n
                return
        runs.append([tag, first, n])

    def _cut(self, pos: int, lo: int, hi: int) -> None:
        """Take the keys ``lo .. hi - stride`` out of run *pos*; what is
        left of the run keeps its place in the recency order."""
        runs = self._runs
        run = runs[pos]
        stride = self.stride
        f = run[1]
        end = f + run[2] * stride
        if f < lo:
            run[2] = (lo - f) // stride
            if hi < end:
                runs.insert(pos + 1, [run[0], hi, (end - hi) // stride])
        elif hi < end:
            run[1] = hi
            run[2] = (end - hi) // stride
        else:
            self._remove(pos)

    def _remove(self, pos: int) -> None:
        """Delete run *pos*; its neighbours merge if the newer one
        continues the older one."""
        runs = self._runs
        del runs[pos]
        if 0 < pos < len(runs):
            prev, run = runs[pos - 1], runs[pos]
            if prev[0] == run[0] and prev[1] + prev[2] * self.stride == run[1]:
                prev[2] += run[2]
                del runs[pos]

    def drop(self, tag: int) -> int:
        """Forget every key of *tag*; returns how many were resident."""
        runs = self._runs
        dropped = 0
        pos = len(runs) - 1
        while pos >= 0:
            if runs[pos][0] == tag:
                dropped += runs[pos][2]
                self._remove(pos)
            pos -= 1
        self._size -= dropped
        return dropped

    def clear(self) -> None:
        """Forget everything."""
        self._runs = []
        self._size = 0

    def keys(self) -> List[Tuple[int, int]]:
        """Resident ``(tag, key)`` pairs in LRU order, oldest first."""
        stride = self.stride
        return [(t, key) for t, f, m in self._runs
                for key in range(f, f + m * stride, stride)]

    def runs(self) -> List[Tuple[int, int, int]]:
        """The ``(tag, first, n)`` runs, oldest first."""
        return [(tag, first, n) for tag, first, n in self._runs]
