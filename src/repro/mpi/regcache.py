"""The registration cache: lazy deregistration (pin-down cache).

"To reduce this overhead, several strategies have been proposed (e.g.
lazy deregistration [9]) and implemented in communication libraries like
MPICH2-CH3-IB.  There, a pool of already registered memory is hold, so
that memory registration is done only once for each virtual address."
(§1)

And its drawback, which the hugepage library sidesteps: "memory remains
allocated to the application during their whole runtime" — we model that
too: cached registrations pin pages, so the allocator cannot return them
to the kernel, and a ``free()`` of cached memory must invalidate the
cache entry (the classic MVAPICH malloc-hook dance).
"""

from __future__ import annotations

import weakref
from typing import Callable, Dict, List, Optional, Tuple

from repro import trace
from repro.analysis.counters import CounterSet
from repro.faults import PermanentRegistrationError, RegistrationFaultError
from repro.ib.hca import HCA
from repro.ib.verbs import MemoryRegion, ProtectionDomain
from repro.mem.address_space import AddressSpace

#: transient-registration retry policy (only ever exercised under fault
#: injection): attempts before a transient failure is promoted to a
#: permanent one, and the exponential-backoff base between attempts
MAX_REG_ATTEMPTS = 5
REG_RETRY_BACKOFF_NS = 10_000.0


class RegistrationCache:
    """An interval cache of live memory registrations for one rank.

    ``enabled=False`` models the paper's "deactivated lazy deregistration"
    mode: every acquire registers and every release deregisters, so the
    full registration cost lands on each message.
    """

    def __init__(
        self,
        hca: HCA,
        aspace: AddressSpace,
        pd: ProtectionDomain,
        enabled: bool = True,
        capacity_bytes: Optional[int] = None,
        counters: Optional[CounterSet] = None,
        owner: Optional[str] = None,
    ):
        self.hca = hca
        #: held weakly: the address space owns this cache, through the
        #: unmap hook that calls :meth:`invalidate_range`
        self._aspace = weakref.ref(aspace)
        self.pd = pd
        self.enabled = enabled
        self.capacity_bytes = capacity_bytes
        self.counters = counters if counters is not None else CounterSet()
        self.owner = owner if owner is not None else "regcache"
        self._entries: List[MemoryRegion] = []  # MRU order, newest last
        #: mr_id -> count of in-flight transfers holding the MR (acquired
        #: but not yet released).  Pinned entries are never capacity
        #: victims: evicting an MR under an active rendezvous would
        #: deregister translations the adapter is still DMAing through.
        self._pins: Dict[int, int] = {}
        self.hits = 0
        self.misses = 0

    @property
    def aspace(self) -> AddressSpace:
        """The address space whose registrations this cache holds."""
        return self._aspace()

    # -- lookup helpers -----------------------------------------------------
    def _find(self, vaddr: int, length: int) -> Optional[MemoryRegion]:
        for mr in reversed(self._entries):
            if mr.contains(vaddr, length):
                return mr
        return None

    @property
    def cached_bytes(self) -> int:
        """Bytes held registered by the cache."""
        return sum(mr.length for mr in self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def _pin(self, mr: MemoryRegion) -> None:
        self._pins[mr.mr_id] = self._pins.get(mr.mr_id, 0) + 1

    def _unpin(self, mr: MemoryRegion) -> None:
        count = self._pins.get(mr.mr_id, 0)
        if count <= 1:
            self._pins.pop(mr.mr_id, None)
        else:
            self._pins[mr.mr_id] = count - 1

    def pinned(self, mr: MemoryRegion) -> bool:
        """True while *mr* is held by an unreleased :meth:`acquire_then`."""
        return self._pins.get(mr.mr_id, 0) > 0

    # -- acquisition ------------------------------------------------------------
    def acquire_then(self, vaddr: int, length: int,
                     then: Callable[[MemoryRegion], None],
                     fail: Callable[[Exception], None]) -> None:
        """Get a registration covering ``[vaddr, vaddr+length)``.

        With the cache enabled a hit is free and *then(mr)* runs at once;
        a miss registers (retrying a transient failure, see
        :meth:`retry_backoff`), caches and evicts, then calls *then(mr)*.
        With the cache disabled every call registers afresh.  A
        registration that fails for good goes to *fail(exc)*.
        """
        mr = self._lookup(vaddr, length)
        if mr is not None:
            then(mr)
            return

        def _registered(mr: MemoryRegion) -> None:
            mr = self._admit(mr)
            self._evict_then(0, lambda: then(mr))

        self.register_then(vaddr, length, _registered, fail)

    def register_then(self, vaddr: int, length: int,
                      then: Callable[[MemoryRegion], None],
                      fail: Callable[[Exception], None],
                      attempt: int = 0) -> None:
        """An uncached registration under :meth:`retry_backoff`'s policy
        (a cache miss, or the endpoint's bounce slab): *then(mr)* on
        success.  A retry is a later kernel step, so every failure goes
        to *fail*, never into the kernel loop."""
        try:
            try:
                self.hca.register_then(self.aspace, self.pd, vaddr, length, then)
                return
            except RegistrationFaultError as exc:
                attempt += 1
                ticks = self.retry_backoff(vaddr, length, exc, attempt)
        except Exception as exc:
            fail(exc)
            return
        self.hca.kernel.call_after(ticks, self.register_then, vaddr, length,
                                   then, fail, attempt)

    def _lookup(self, vaddr: int, length: int) -> Optional[MemoryRegion]:
        """The hit half of an acquisition: the pinned MR, or None after
        counting a miss."""
        if self.enabled:
            mr = self._find(vaddr, length)
            if mr is not None:
                self.hits += 1
                self.counters.add("regcache.hit")
                trace.instant("mpi.regcache.hit", track=self.owner,
                              bytes=length)
                # MRU touch
                self._entries.remove(mr)
                self._entries.append(mr)
                self._pin(mr)
                return mr
        self.misses += 1
        self.counters.add("regcache.miss")
        trace.instant("mpi.regcache.miss", track=self.owner, bytes=length)
        return None

    def _admit(self, mr: MemoryRegion) -> MemoryRegion:
        """Pin a freshly registered MR and cache it; returns it."""
        self._pin(mr)
        if self.enabled:
            self._entries.append(mr)
        return mr

    def retry_backoff(self, vaddr: int, length: int,
                      exc: RegistrationFaultError, attempt: int) -> int:
        """The MR-failure policy, for attempt number *attempt* failing
        with *exc*: the ticks to back off before the next attempt, or
        the error to give up with (raised).

        Cached registrations overlapping the range are invalidated
        either way: they may reference the very driver state that just
        failed.  A transient failure is retried with exponential backoff
        and promoted to a permanent one after :data:`MAX_REG_ATTEMPTS`;
        a permanent one propagates.
        """
        if isinstance(exc, PermanentRegistrationError):
            self.invalidate_range(vaddr, length)
            raise exc
        self.counters.add("faults.regcache.retries")
        self.invalidate_range(vaddr, length)
        if attempt >= MAX_REG_ATTEMPTS:
            raise PermanentRegistrationError(
                f"registration of [{vaddr:#x}+{length}] still "
                f"failing after {attempt} attempts"
            )
        backoff_ns = REG_RETRY_BACKOFF_NS * (2 ** (attempt - 1))
        return max(1, self.hca.clock.ns_to_ticks(backoff_ns))

    def release_then(self, mr: MemoryRegion, then: Callable[[], None]) -> None:
        """Finish using *mr*: unpins it; *then()* runs at once when
        caching, after an immediate (timed) deregistration otherwise."""
        self._unpin(mr)
        if self.enabled:
            then()
        else:
            self.hca.deregister_then(self.aspace, mr, then)

    def _evict_then(self, idx: int, then: Callable[[], None]) -> None:
        victim, idx = self._next_victim(idx)
        if victim is None:
            then()
        else:
            self.hca.deregister_then(self.aspace, victim,
                                     lambda: self._evict_then(idx, then))

    def _next_victim(self, idx: int) -> Tuple[Optional[MemoryRegion], int]:
        """The next capacity victim at or after LRU position *idx*,
        dropped from the cache (None when under capacity), and the
        position to resume the walk from.

        The walk starts at the cold end, skips pinned entries (an MR an
        in-flight transfer still holds) and never evicts the newest
        entry (the acquisition that triggered the pass)."""
        if self.capacity_bytes is None:
            return None, idx
        while (self.cached_bytes > self.capacity_bytes
               and idx < len(self._entries) - 1):
            victim = self._entries[idx]
            if self.pinned(victim):
                idx += 1
                continue
            self._entries.pop(idx)
            self.counters.add("regcache.evict")
            trace.instant("mpi.regcache.evict", track=self.owner,
                          bytes=victim.length)
            return victim, idx
        return None, idx

    # -- invalidation -----------------------------------------------------------
    def invalidate_range(self, vaddr: int, length: int) -> int:
        """Synchronously drop cached registrations overlapping a freed
        range (the malloc-hook path; kernel-side cost is charged to the
        allocator's free already).  Returns entries dropped."""
        doomed = [
            mr
            for mr in self._entries
            if not (vaddr + length <= mr.vaddr or mr.vaddr + mr.length <= vaddr)
        ]
        for mr in doomed:
            self._entries.remove(mr)
            self.hca.reg.deregister(self.aspace, mr)
            self.counters.add("regcache.invalidate")
        return len(doomed)
