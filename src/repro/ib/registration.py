"""Memory registration: pin, translate, upload (§3 of the paper).

    "three important steps have to be done:
     1. All pages of the communication buffer have to stay in memory and
        must be pinned.
     2. The virtual start address of each page has to be translated into
        a physical one.
     3. The address translations have to be sent to the NIC."

Each step's cost is per *page* (steps 1-2, at the kernel's real page
granularity) or per *translation entry* (step 3, at the granularity the
driver chose — see :mod:`repro.ib.driver`).  A 4 MB buffer costs 1024
pin+translate+upload units on base pages but only 2 on hugepages with the
patched driver, which is the mechanism behind the paper's "memory
registration time decreased extremely (down to 1 % of the time as with
small pages)" (§5.1).

Deregistration unpins and drops the adapter-side entries; the ATT cache
invalidates that region.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro import fastpath, sanitize
from repro.analysis.counters import CounterSet
from repro.faults import (
    FaultInjector,
    PermanentRegistrationError,
    TransientRegistrationError,
)
from repro.ib.att import ATTCache
from repro.ib.driver import OpenIBDriver
from repro.ib.verbs import IBVerbsError, MemoryRegion, ProtectionDomain
from repro.mem.address_space import AddressSpace
from repro.mem.physical import PAGE_2M, PAGE_4K

_keys = itertools.count(0x1000)


@dataclass(frozen=True)
class RegistrationCosts:
    """Per-step costs (ns), sized to era measurements (~90 µs/MB on
    base pages for large buffers, dominated by per-page work)."""

    base_ns: float = 15_000.0
    per_4k_pin_ns: float = 180.0
    per_2m_pin_ns: float = 420.0
    per_page_translate_ns: float = 80.0
    per_entry_upload_ns: float = 60.0
    dereg_base_ns: float = 8_000.0
    per_entry_dereg_ns: float = 25.0

    def pin_ns(self, page_size: int) -> float:
        """Pinning cost for one page of *page_size*."""
        if page_size == PAGE_4K:
            return self.per_4k_pin_ns
        if page_size == PAGE_2M:
            return self.per_2m_pin_ns
        raise ValueError(f"unsupported page size {page_size}")


class RegistrationEngine:
    """Registers/deregisters user buffers against one HCA."""

    def __init__(
        self,
        driver: OpenIBDriver,
        att: ATTCache,
        costs: Optional[RegistrationCosts] = None,
        counters: Optional[CounterSet] = None,
        faults: Optional[FaultInjector] = None,
    ):
        self.driver = driver
        self.att = att
        self.costs = costs if costs is not None else RegistrationCosts()
        self.counters = counters if counters is not None else CounterSet()
        self.faults = faults if (faults is not None and faults.active) else None

    def register(
        self,
        aspace: AddressSpace,
        pd: ProtectionDomain,
        vaddr: int,
        length: int,
    ) -> Tuple[MemoryRegion, float]:
        """Register ``[vaddr, vaddr+length)``; returns ``(MR, cost_ns)``.

        The whole range must be mapped (HPC apps touch buffers before
        sending; demand-fault-during-registration is out of scope).
        """
        if length <= 0:
            raise IBVerbsError(f"registration length must be positive, got {length}")
        if self.faults is not None:
            # decide before pinning anything, so a failed registration
            # leaves no pinned pages behind
            outcome = self.faults.registration_outcome()
            if outcome == "permanent":
                raise PermanentRegistrationError(
                    f"registration of [{vaddr:#x}+{length}] failed permanently "
                    "(adapter translation table exhausted)"
                )
            if outcome == "transient":
                raise TransientRegistrationError(
                    f"registration of [{vaddr:#x}+{length}] failed transiently "
                    "(driver resource shortage; retry may succeed)"
                )
        ns = self.costs.base_ns
        run = aspace.translation_run(vaddr, length) if fastpath.enabled() else None
        if run is not None:
            # one page run: pin the whole span with one slice operation
            pages, first, last = run
            page_size = pages.page_size
            n_pages = last - first + 1
            pages.pins[first:last + 1] += 1
            ns += n_pages * (self.costs.pin_ns(page_size)
                             + self.costs.per_page_translate_ns)
            entry_page_size, n_entries = self.driver.plan_uniform(
                page_size, n_pages)
            base = pages.start + first * page_size
        else:
            entries = list(aspace.page_table.pages_in_range(vaddr, length))
            n_pages = len(entries)
            # step 1: pin + step 2: translate, per real kernel page
            if entries[0].page_size == entries[-1].page_size:
                # one VMA's pages share a size: hoist the cost lookup
                per_page = (
                    self.costs.pin_ns(entries[0].page_size)
                    + self.costs.per_page_translate_ns
                )
                for page in entries:
                    page.pin_count += 1
                ns += n_pages * per_page
            else:
                for page in entries:
                    page.pin_count += 1
                    ns += self.costs.pin_ns(page.page_size)
                    ns += self.costs.per_page_translate_ns
            entry_page_size, n_entries = self.driver.plan_entries(entries)
            base = entries[0].vaddr
        # step 3: upload translations at the driver's chosen granularity
        ns += n_entries * self.costs.per_entry_upload_ns
        mr = MemoryRegion(
            mr_id=next(_keys),
            pd=pd,
            vaddr=vaddr,
            length=length,
            entry_page_size=entry_page_size,
            n_entries=n_entries,
            base=base,
            lkey=next(_keys),
            rkey=next(_keys),
        )
        self.counters.add("reg.register")
        self.counters.add("reg.entries_uploaded", n_entries)
        self.counters.add("reg.pages_pinned", n_pages)
        san = sanitize._active
        if san is not None and san.mr:
            san.on_register(mr, aspace)
        return mr, ns

    def deregister(self, aspace: AddressSpace, mr: MemoryRegion) -> float:
        """Deregister *mr*; returns the cost in ns."""
        if not mr.registered:
            raise IBVerbsError(f"MR {mr.mr_id} already deregistered")
        ns = self.costs.dereg_base_ns + mr.n_entries * self.costs.per_entry_dereg_ns
        run = (aspace.translation_run(mr.vaddr, mr.length)
               if fastpath.enabled() else None)
        if run is not None:
            pages, first, last = run
            pins = pages.pins[first:last + 1]
            unpinned = pins < 1
            if unpinned.any():
                i = first + int(np.argmax(unpinned))
                raise IBVerbsError(
                    f"unpin of page {pages.start + i * pages.page_size:#x} "
                    "that is not pinned"
                )
            pins -= 1
        else:
            entries = list(aspace.page_table.pages_in_range(mr.vaddr, mr.length))
            for page in entries:
                if page.pin_count <= 0:
                    raise IBVerbsError(
                        f"unpin of page {page.vaddr:#x} that is not pinned"
                    )
            for page in entries:
                page.pin_count -= 1
        self.att.invalidate_region(mr.mr_id)
        mr.registered = False
        self.counters.add("reg.deregister")
        san = sanitize._active
        if san is not None and san.mr:
            san.on_deregister(mr)
        return ns
