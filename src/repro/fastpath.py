"""The fast-path switch: batched/closed-form costing vs reference loops.

The simulator keeps two implementations of every hot costing routine:

- a **reference path** that walks structures element by element (per
  cache line, per page, per translation entry) through the stateful
  hardware models — simple to audit, and the behaviour every test and
  figure was originally validated against;
- a **fast path** that computes the same result in bulk: LRU sweeps are
  replayed with set arithmetic instead of per-key method calls, page
  walks are read from the page table's run arrays, and counters are
  updated once per phase instead of once per element.

Both paths are required to be *equivalent*: identical reported ticks,
identical counter values, identical model state afterwards (TLB/cache/
ATT residency, LRU order, pin counts).  ``tests/test_fastpath_
equivalence.py`` enforces this property-style; ``docs/performance.md``
documents the contract.

This module owns the global toggle.  The fast path is ON by default;
it can be disabled

- programmatically: :func:`set_enabled` / :func:`disabled`,
- from the CLI: every ``repro`` command accepts ``--no-fastpath``,
- from the environment: ``REPRO_NO_FASTPATH=1``.

The flag is read through :func:`enabled` on every fast-path entry, so
flipping it mid-run is safe (each phase is costed wholly on one path).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator

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
# the event-fold switch
#
# Orthogonal to the costing switch above: folding replaces the adapter's
# per-message generator processes with equivalent callback chains (see
# ``repro.ib.hca``), cutting kernel events and generator resumes without
# changing a single cost formula.  It is therefore active on BOTH costing
# paths AND under the sanitizer (its hooks are synchronous calls the
# fold chains make too); this switch exists so equivalence tests (and
# debugging) can pin a run onto the per-hop process machinery that
# folding replaces.  Tracing (per message) and fault plans (per HCA)
# pin that machinery on their own — the fold has no span sites and no
# per-packet decision points; this is the global override.
# ---------------------------------------------------------------------------

_fold: bool = os.environ.get("REPRO_NO_FOLD", "").strip().lower() not in (
    "1",
    "true",
    "yes",
    "on",
)


def fold_enabled() -> bool:
    """True while the adapter event folds are allowed."""
    return _fold


def set_fold(flag: bool) -> None:
    """Turn the adapter event folds on or off globally."""
    global _fold
    _fold = bool(flag)


@contextmanager
def fold_forced(flag: bool) -> Iterator[None]:
    """Context manager: pin the fold switch to *flag* for the body."""
    global _fold
    prior = _fold
    _fold = bool(flag)
    try:
        yield
    finally:
        _fold = prior


def lru_sweep(array: "dict", first_key: int, n_keys: int, stride: int, capacity: int):
    """Replay a sequential LRU sweep in bulk; returns ``(hits, misses)``.

    *array* is an ``OrderedDict``-like LRU map (front = least recently
    used) whose integer keys are compared against the arithmetic key
    sequence ``first_key, first_key + stride, ...`` (*n_keys* keys).
    The replay is **exact**: hit/miss totals and the final content *and
    order* of *array* match a key-by-key replay of::

        for key in keys:
            if key in array: array.move_to_end(key)          # hit
            else:                                            # miss
                while len(array) >= capacity: array.popitem(last=False)
                array[key] = True

    The common cases (no swept key resident; every swept key resident)
    cost ``O(len(array))`` / ``O(n_keys bounded by capacity)`` instead
    of ``O(n_keys)`` dict traffic; mixed residency falls back to an
    in-line exact replay.
    """
    end = first_key + n_keys * stride
    resident = 0
    if len(array) <= n_keys:
        for key in array:
            if first_key <= key < end and (key - first_key) % stride == 0:
                resident += 1
    else:
        for key in range(first_key, end, stride):
            if key in array:
                resident += 1
    if resident == 0:
        # all misses: survivors of the old content, then the new keys
        # (inserted via dict.fromkeys/update so the per-key loop runs in C)
        if n_keys >= capacity:
            array.clear()
            array.update(dict.fromkeys(range(end - capacity * stride, end, stride), True))
        else:
            overflow = len(array) + n_keys - capacity
            for _ in range(overflow if overflow > 0 else 0):
                array.popitem(last=False)
            array.update(dict.fromkeys(range(first_key, end, stride), True))
        return 0, n_keys
    if resident == n_keys:
        # all hits: no insertions, so no evictions — refresh LRU order
        for key in range(first_key, end, stride):
            array.move_to_end(key)
        return n_keys, 0
    # Repeated long sweep: the array holds exactly the *last* `capacity`
    # sweep keys in sweep order (the state any >=capacity sweep leaves
    # behind).  With n >= 2*capacity every one of those residents is
    # evicted before the cursor reaches it — the first (n - capacity)
    # misses each evict the oldest entry, and n - capacity >= capacity
    # drains the whole array — so the sweep is all misses and ends in the
    # same state it started in.  O(capacity) instead of an O(n) replay.
    if (
        resident == capacity
        and len(array) == capacity
        and n_keys >= 2 * capacity
    ):
        tail = end - capacity * stride
        if all(key == expect for key, expect in zip(array, range(tail, end, stride))):
            # the replay re-inserts those same keys in the same order:
            # the array is already in its final state
            return 0, n_keys
    # mixed residency: exact in-line replay (no per-key method calls)
    hits = 0
    pop = array.popitem
    move = array.move_to_end
    for key in range(first_key, end, stride):
        if key in array:
            move(key)
            hits += 1
        else:
            while len(array) >= capacity:
                pop(last=False)
            array[key] = True
    return hits, n_keys - hits
