"""The HCA's address-translation-table (ATT) cache.

Registered memory regions store their page translations in adapter
memory; the adapter keeps a small on-chip cache of recently used entries.
Every DMA access must translate its target page — a cached entry is free,
a miss stalls the DMA engine while the entry is fetched from adapter
memory (or host memory, depending on the design).

The paper's mechanism (§5.1, §6): with 4 KB translations a multi-megabyte
transfer touches a new entry every 4 KB and the cache thrashes; with the
patched driver sending 2 MB translations the working set shrinks 512×,
"less ATT misses on the adapter ... can also result in bigger network
bandwidth due to less dispatched stalls" — visible on the Xeon's PCI-X
system where the bus has no slack to hide the stalls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro import sanitize
from repro.analysis.counters import CounterSet
from repro.fastpath import RunLRU


@dataclass(frozen=True)
class ATTConfig:
    """ATT cache geometry and miss cost.

    Attributes
    ----------
    entries: on-chip translation-cache entries (page-size agnostic).
    fetch_ns: stall to fetch one entry on a miss.
    """

    entries: int = 64
    fetch_ns: float = 250.0

    def __post_init__(self) -> None:
        if self.entries < 1:
            raise ValueError("ATT cache needs at least one entry")
        if self.fetch_ns < 0:
            raise ValueError("fetch cost cannot be negative")


class ATTCache:
    """Fully-associative LRU cache of translation entries.

    Keys are ``(mr_id, entry_index)`` pairs — an entry translates one
    *registered page* of one memory region, at whatever page size the
    driver uploaded.
    """

    def __init__(self, config: ATTConfig, counters: Optional[CounterSet] = None):
        self.config = config
        self.counters = counters if counters is not None else CounterSet()
        self._cache = RunLRU(config.entries)

    def access(self, mr_id: int, entry_index: int) -> Tuple[bool, float]:
        """Translate through entry *entry_index* of region *mr_id*.

        Returns ``(hit, stall_ns)``.
        """
        san = sanitize._active
        if san is not None and san.mr:
            san.check_att(mr_id, entry_index, 1)
        if self._cache.access(entry_index, mr_id):
            self.counters.add("att.hit")
            return True, 0.0
        self.counters.add("att.miss")
        return False, self.config.fetch_ns

    def sweep_range(self, mr_id: int, first_entry: int, n_entries: int) -> Tuple[int, int]:
        """Translate a sequential run of entries in one call.

        Exactly equivalent to per-entry :meth:`access` calls on
        ``(mr_id, first_entry) .. (mr_id, first_entry+n_entries-1)``:
        identical hit/miss totals and counters, identical final cache
        content and LRU order.  Returns ``(hits, misses)``; the stall is
        ``misses * config.fetch_ns``.
        """
        if n_entries <= 0:
            raise ValueError(f"n_entries must be positive, got {n_entries}")
        san = sanitize._active
        if san is not None and san.mr:
            san.check_att(mr_id, first_entry, n_entries)
        hits = self._cache.sweep(first_entry, n_entries, mr_id)
        misses = n_entries - hits
        if hits:
            self.counters.add("att.hit", hits)
        if misses:
            self.counters.add("att.miss", misses)
        return hits, misses

    def invalidate_region(self, mr_id: int) -> int:
        """Drop all cached entries of one region (deregistration).

        Returns the number of entries dropped.
        """
        return self._cache.drop(mr_id)

    @property
    def resident(self) -> int:
        """Live cached entries."""
        return len(self._cache)

    def keys(self) -> List[Tuple[int, int]]:
        """Cached ``(mr_id, entry_index)`` keys in LRU order, oldest first."""
        return self._cache.keys()

    def flush(self) -> None:
        """Drop everything."""
        self._cache.clear()

    # -- snapshot view ------------------------------------------------------
    def dump_state(self) -> list:
        """Picklable snapshot: ``(mr_id, entry_index)`` keys in LRU
        order (oldest first)."""
        return self._cache.keys()
