"""PAPI-like performance counters.

The paper instruments an Opteron with PAPI to read hardware performance
counters (notably TLB misses) while running the NAS benchmarks.  Our
simulated hardware publishes its counters through :class:`CounterSet`, a
small hierarchical counter registry: every component (TLB, caches, ATT,
allocators, protocol engines) increments named counters, and benchmarks
snapshot/diff them exactly like a PAPI harness would.
"""

from __future__ import annotations

from collections import defaultdict
from sys import intern
from typing import Dict, Iterable, Iterator, Mapping, Tuple

from repro import sanitize as _sanitize


class CounterSet:
    """A mutable mapping of counter name -> integer value.

    Names are dotted paths by convention (``"tlb.4k.miss"``,
    ``"att.fetch"``, ``"alloc.free_calls"``) so related counters can be
    grouped with :meth:`group`.

    Keys are interned on insertion: components increment the same small
    name set millions of times, and interning makes every later lookup a
    pointer comparison (and cross-set merges cheap) regardless of where
    the name string came from.

    Keys are normalised to exact ``str`` before interning: ``sys.intern``
    raises TypeError on ``str`` subclasses, and counter names routinely
    arrive from deserialisers (unpickled snapshots, JSON plan files)
    whose string types are not guaranteed.  Without the normalisation
    such a run crashes — or worse, stores a subclass key that compares
    equal to but is not the interned key an uninterrupted run stores.
    """

    __slots__ = ("_counts",)

    def __init__(self) -> None:
        self._counts: Dict[str, int] = defaultdict(int)

    def add(self, name: str, amount: int = 1) -> None:
        """Increment *name* by *amount* (may be negative for corrections)."""
        san = _sanitize._active
        if san is not None and san.counter:
            san.check_amount(name, amount)
        counts = self._counts
        if name not in counts:
            if type(name) is not str:
                name = str(name)
            name = intern(name)  # detlint: ignore[intern-str] — normalised above
        counts[name] += amount

    def add_many(self, pairs: Iterable[Tuple[str, int]]) -> None:
        """Apply several ``(name, amount)`` increments in one call."""
        san = _sanitize._active
        check = san is not None and san.counter
        counts = self._counts
        for name, amount in pairs:
            if check:
                san.check_amount(name, amount)
            if name not in counts:
                if type(name) is not str:
                    name = str(name)
                name = intern(name)  # detlint: ignore[intern-str] — normalised above
            counts[name] += amount

    def get(self, name: str, default: int = 0) -> int:
        """Current value of *name* (0 if never incremented)."""
        return self._counts.get(name, default)

    def __getitem__(self, name: str) -> int:
        return self._counts.get(name, 0)

    def __contains__(self, name: str) -> bool:
        return name in self._counts

    def __iter__(self) -> Iterator[Tuple[str, int]]:
        return iter(sorted(self._counts.items()))

    def __len__(self) -> int:
        return len(self._counts)

    def group(self, prefix: str) -> Dict[str, int]:
        """All counters whose name starts with ``prefix + '.'`` (or equals
        *prefix*), keyed by the remainder of the name."""
        out: Dict[str, int] = {}
        dotted = prefix + "."
        for name, value in self._counts.items():
            if name == prefix:
                out[""] = value
            elif name.startswith(dotted):
                out[name[len(dotted):]] = value
        return out

    def snapshot(self) -> Dict[str, int]:
        """A frozen copy of all counters, keys in sorted order (so
        snapshots — and every report built from one — diff cleanly
        across runs regardless of increment order)."""
        return dict(sorted(self._counts.items()))

    def diff(self, baseline: Mapping[str, int]) -> Dict[str, int]:
        """Counters accumulated since *baseline* (a prior snapshot)."""
        out: Dict[str, int] = {}
        for name, value in self._counts.items():
            delta = value - baseline.get(name, 0)
            if delta:
                out[name] = delta
        return out

    def reset(self) -> None:
        """Zero every counter."""
        self._counts.clear()

    def merged_with(self, other: "CounterSet") -> Dict[str, int]:
        """Sum of this set and *other* (e.g. aggregating across ranks)."""
        out = dict(self._counts)
        for name, value in other._counts.items():
            out[name] = out.get(name, 0) + value
        return out
