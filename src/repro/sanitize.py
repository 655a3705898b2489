"""SimSan: continuous shadow-state sanitizers for the simulated stack.

The cross-layer auditor (:mod:`repro.audit`) proves invariants at
*snapshot boundaries*; the bug classes PR 4 fixed (pinned-MR eviction,
zero-byte WRs, str-subclass interning) all manifest **between**
boundaries and were invisible to it.  This module is the continuous
counterpart — ASAN/MSAN for the simulated allocators and verbs stack:
per-operation checks that fire *at the faulting access*, with the exact
address/key in hand.

Rule groups (``--sanitize=heap,mr,tlb,counter`` / ``REPRO_SANITIZE``):

``heap`` — shadow intervals over every outermost allocation of
:class:`repro.alloc.base.Allocator` (libc and the hugepage library),
with freed ranges quarantined until the allocator reuses them:

- ``heap.use-after-free`` — an access overlaps a freed allocation.
- ``heap.double-free`` — ``free()`` of a quarantined pointer.
- ``heap.out-of-bounds`` — an access starts inside a live allocation
  and runs past its requested size.
- ``heap.redzone-touch`` — an access starts in the redzone (the
  allocator-metadata bytes just past a live allocation's end).
- ``heap.overlap`` — the allocator handed out memory overlapping a
  live allocation (allocator bug, not application bug).

``mr`` — rkey/lkey lifetime tracking mirroring every registration:

- ``mr.use-after-dereg`` — a posted SGE or an inbound RDMA resolves a
  key whose region was deregistered (checked at ``post_send``/rx time,
  not at the next snapshot).
- ``mr.duplicate-registration`` — two *live* registrations of the
  identical range in one address space.  Mere overlap is **legal**: the
  lazy-dereg registration cache keeps MRs over ranges the application
  has freed, and a later wider registration may overlap them.
- ``mr.unmapped-frame`` / ``mr.unpinned-page`` — a DMA walks a page of
  a live MR that has lost its mapping or its pin (the adapter's ATT
  would point at a stale frame).
- ``att.stale-entry`` / ``att.out-of-range`` — the ATT cache is asked
  to translate through an entry of a dead region, or an entry index
  past the region's uploaded translation count.

``tlb`` — page-table/TLB consistency at each translated access:

- ``tlb.stale-translation`` — the page run the fast path reads
  disagrees with the page-table walk (vaddr, frame or page size).
- ``tlb.unbacked-frame`` — a PTE's frame is misaligned or outside
  physical memory.
- ``tlb.dangling-entry`` — the TLB holds a virtual page with no PTE.
- ``tlb.unmapped-range`` — an access shape touches unmapped memory.

``counter`` — ``counter.float-amount``: a non-integer amount entering a
:class:`~repro.analysis.counters.CounterSet` (floats drift across
platforms and break byte-identical reports; the ``float-counter``
rule of ``tools/simlint`` is the static version of this rule).

The enablement pattern is :mod:`repro.trace`'s: a module-level
``_active`` handle, hook sites paying one attribute read + ``None``
check when sanitizing is off, and :func:`capturing` for scoped
installs.  Sanitizers only *read* model state (plus their own shadow)
and never touch clocks, RNG streams or counters, so a clean sanitized
run is **byte-identical** to an unsanitized one — pinned by hypothesis
tests in ``tests/test_sanitize.py``.

Violations raise :class:`SanitizerError` carrying the rule id, the
faulting address/key and a context dict; when a tracer is installed a
``sanitize.violation`` instant is emitted first, so the report links
into the Chrome trace timeline at the exact simulated tick (see
``docs/static_analysis.md``).
"""

from __future__ import annotations

from bisect import bisect_right, insort
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro import trace

#: rule groups accepted by :func:`parse_rules`
RULE_GROUPS = ("heap", "mr", "tlb", "counter")

#: bytes just past a live allocation treated as allocator metadata
#: (libc's boundary-tag header is 16 bytes; the chunk freelist's
#: metadata is out-of-band but freed-neighbour reuse gives the same
#: hazard window)
REDZONE_BYTES = 16

#: the installed sanitizer, or None (sanitizing disabled).  Module-level
#: so hook sites pay one attribute read + None check when off.
_active: Optional["Sanitizer"] = None


def active() -> Optional["Sanitizer"]:
    """The installed :class:`Sanitizer`, or None when disabled."""
    return _active


def install(sanitizer: "Sanitizer") -> None:
    """Install *sanitizer* as the process-wide sanitizer."""
    global _active
    _active = sanitizer


def uninstall() -> None:
    """Disable sanitizing."""
    global _active
    _active = None


@contextmanager
def capturing(sanitizer: "Sanitizer") -> Iterator["Sanitizer"]:
    """Install *sanitizer* for the duration of a ``with`` block."""
    global _active
    prior = _active
    _active = sanitizer
    try:
        yield sanitizer
    finally:
        _active = prior


def parse_rules(spec: Optional[str]) -> Tuple[str, ...]:
    """Parse a ``--sanitize``/``REPRO_SANITIZE`` value into rule groups.

    ``None``, ``""``, ``"1"``, ``"true"``, ``"on"`` and ``"all"`` mean
    every group; otherwise a comma-separated subset of
    :data:`RULE_GROUPS`.
    """
    if spec is None or spec.strip().lower() in ("", "1", "true", "yes", "on", "all"):
        return RULE_GROUPS
    groups: List[str] = []
    for part in spec.split(","):
        name = part.strip().lower()
        if not name:
            continue
        if name not in RULE_GROUPS:
            raise ValueError(
                f"unknown sanitizer group {name!r} "
                f"(choose from {', '.join(RULE_GROUPS)})"
            )
        if name not in groups:
            groups.append(name)
    if not groups:
        return RULE_GROUPS
    return tuple(groups)


class SanitizerError(Exception):
    """A sanitizer rule fired.

    Attributes
    ----------
    rule: the rule id (``"heap.use-after-free"``, ``"mr.use-after-dereg"``…).
    address: faulting virtual address, when the rule has one.
    key: faulting lkey/rkey/mr_id, when the rule has one.
    tick: simulated tick of the faulting operation (0 when no tracer
        clock is attached).
    context: extra structured detail (sizes, page addresses, op names).
    """

    def __init__(self, rule: str, message: str, *,
                 address: Optional[int] = None, key: Optional[int] = None,
                 tick: int = 0,
                 context: Optional[Dict[str, Any]] = None) -> None:
        self.rule = rule
        self.address = address
        self.key = key
        self.tick = tick
        self.context = context if context is not None else {}
        super().__init__(message)

    def __str__(self) -> str:
        parts = [f"sanitize[{self.rule}]: {self.args[0]}"]
        if self.address is not None:
            parts.append(f"address={self.address:#x}")
        if self.key is not None:
            parts.append(f"key={self.key:#x}")
        if self.tick:
            parts.append(f"tick={self.tick}")
        for name, value in sorted(self.context.items()):
            parts.append(f"{name}={value}")
        return " ".join(parts)


class _Alloc:
    """One shadow interval: an allocation the application made."""

    __slots__ = ("start", "size", "free", "allocator")

    def __init__(self, start: int, size: int, allocator: str) -> None:
        self.start = start
        self.size = size
        self.free = False
        self.allocator = allocator

    @property
    def end(self) -> int:
        return self.start + self.size


class _HeapShadow:
    """Shadow intervals of one address space's heap allocations."""

    __slots__ = ("starts", "recs")

    def __init__(self) -> None:
        #: sorted allocation start addresses (live and quarantined)
        self.starts: List[int] = []
        self.recs: Dict[int, _Alloc] = {}


class _MRShadow:
    """Lifetime record of one registration (kept after dereg)."""

    __slots__ = ("mr_id", "lkey", "rkey", "vaddr", "length", "n_entries",
                 "aspace", "registered")

    def __init__(self, mr: Any, aspace: Any) -> None:
        self.mr_id = mr.mr_id
        self.lkey = mr.lkey
        self.rkey = mr.rkey
        self.vaddr = mr.vaddr
        self.length = mr.length
        self.n_entries = mr.n_entries
        self.aspace = aspace
        self.registered = True


class Sanitizer:
    """Shadow-state checker; see the module docstring for the rules.

    One sanitizer is single-run state, like a
    :class:`~repro.trace.Tracer`: install one per run with
    :func:`capturing`.  ``checks`` counts performed checks per group —
    sanitizer-internal bookkeeping, deliberately **not** part of any
    cluster :class:`~repro.analysis.counters.CounterSet` (which would
    break byte-identity with unsanitized runs).
    """

    def __init__(self, groups: Tuple[str, ...] = RULE_GROUPS) -> None:
        for group in groups:
            if group not in RULE_GROUPS:
                raise ValueError(f"unknown sanitizer group {group!r}")
        self.groups = tuple(groups)
        self.heap = "heap" in groups
        self.mr = "mr" in groups
        self.tlb = "tlb" in groups
        self.counter = "counter" in groups
        self.checks: Dict[str, int] = {g: 0 for g in RULE_GROUPS}
        self._heaps: Dict[int, Tuple[Any, _HeapShadow]] = {}
        self._mrs: Dict[int, _MRShadow] = {}
        self._by_lkey: Dict[int, _MRShadow] = {}
        self._by_rkey: Dict[int, _MRShadow] = {}
        #: allocator-call nesting depth: the hugepage library delegates
        #: small requests to libc through the *public* malloc/free, and
        #: only the outermost call is the application's allocation
        self._heap_depth = 0

    # -- violation reporting ------------------------------------------------

    def _violate(self, rule: str, message: str, *,
                 address: Optional[int] = None, key: Optional[int] = None,
                 **context: Any) -> None:
        tick = 0
        tracer = trace.active()
        if tracer is not None:
            tick = tracer._now()
            attrs = dict(context)
            if address is not None:
                attrs["address"] = address
            if key is not None:
                attrs["key"] = key
            tracer.instant("sanitize.violation", track="sanitize",
                           rule=rule, **attrs)
        raise SanitizerError(rule, message, address=address, key=key,
                             tick=tick, context=context)

    def report(self) -> str:
        """One-line per-group summary of checks performed."""
        done = ", ".join(f"{g}={self.checks[g]}" for g in self.groups)
        return f"sanitize: clean ({done} checks)"

    # -- heap shadow --------------------------------------------------------

    def _heap_shadow(self, aspace: Any) -> _HeapShadow:
        entry = self._heaps.get(id(aspace))
        if entry is None:
            # keyed by id() for speed; the aspace reference keeps the
            # object alive so ids cannot be recycled under us
            entry = self._heaps[id(aspace)] = (aspace, _HeapShadow())
        return entry[1]

    def on_malloc(self, allocator: Any, vaddr: int, size: int) -> None:
        """Record an outermost allocation; flags ``heap.overlap``."""
        if self._heap_depth:
            return  # inner delegation (hugepage lib -> libc): not an app alloc
        self.checks["heap"] += 1
        aspace = getattr(allocator, "aspace", None)
        if aspace is None:  # pragma: no cover - all repo allocators have one
            return
        shadow = self._heap_shadow(aspace)
        starts, recs = shadow.starts, shadow.recs
        end = vaddr + size
        # evict quarantined intervals the allocator is reusing (a partial
        # reuse drops the whole freed record's quarantine); a *live*
        # overlap means the allocator handed out the same bytes twice
        doomed: List[int] = []
        i = bisect_right(starts, vaddr) - 1
        j = i if i >= 0 else 0
        while j < len(starts) and starts[j] < end:
            rec = recs[starts[j]]
            if rec.end > vaddr and rec.start < end:
                if not rec.free:
                    who = getattr(allocator, "name",
                                  type(allocator).__name__)
                    self._violate(
                        "heap.overlap",
                        f"{who} returned [{vaddr:#x}+{size}] "
                        f"overlapping live allocation "
                        f"[{rec.start:#x}+{rec.size}]",
                        address=vaddr, overlaps=rec.start, size=size,
                    )
                doomed.append(rec.start)
            j += 1
        for start in doomed:
            del recs[start]
            starts.remove(start)
        rec = _Alloc(vaddr, size,
                     getattr(allocator, "name", type(allocator).__name__))
        recs[vaddr] = rec
        insort(starts, vaddr)

    def on_free(self, allocator: Any, vaddr: int) -> None:
        """Check + record an outermost free; flags ``heap.double-free``."""
        if self._heap_depth:
            return
        self.checks["heap"] += 1
        aspace = getattr(allocator, "aspace", None)
        if aspace is None:  # pragma: no cover - all repo allocators have one
            return
        rec = self._heap_shadow(aspace).recs.get(vaddr)
        if rec is None:
            return  # allocated before the sanitizer was installed
        if rec.free:
            self._violate(
                "heap.double-free",
                f"free() of already-freed [{vaddr:#x}+{rec.size}] "
                f"({rec.allocator})",
                address=vaddr, size=rec.size,
            )
        rec.free = True

    def check_heap_access(self, aspace: Any, vaddr: int, nbytes: int,
                          op: str) -> None:
        """Validate one access shape against the shadow intervals."""
        self.checks["heap"] += 1
        entry = self._heaps.get(id(aspace))
        if entry is None:
            return
        shadow = entry[1]
        starts, recs = shadow.starts, shadow.recs
        end = vaddr + nbytes
        i = bisect_right(starts, vaddr) - 1
        if i >= 0:
            rec = recs[starts[i]]
            if vaddr < rec.end:  # access starts inside this allocation
                if rec.free:
                    self._violate(
                        "heap.use-after-free",
                        f"{nbytes}-byte {op} inside freed "
                        f"[{rec.start:#x}+{rec.size}] ({rec.allocator})",
                        address=vaddr, size=nbytes, op=op,
                    )
                if end > rec.end:
                    self._violate(
                        "heap.out-of-bounds",
                        f"{nbytes}-byte {op} at {vaddr:#x} runs "
                        f"{end - rec.end} bytes past "
                        f"[{rec.start:#x}+{rec.size}] ({rec.allocator})",
                        address=rec.end, size=nbytes, op=op,
                    )
                return  # wholly inside one live allocation
            if not rec.free and vaddr < rec.end + REDZONE_BYTES:
                self._violate(
                    "heap.redzone-touch",
                    f"{nbytes}-byte {op} at {vaddr:#x} in the redzone of "
                    f"[{rec.start:#x}+{rec.size}] ({rec.allocator})",
                    address=vaddr, size=nbytes, op=op,
                )
        # freed intervals that start inside the accessed range
        j = i + 1
        while j < len(starts) and starts[j] < end:
            rec = recs[starts[j]]
            if rec.free:
                self._violate(
                    "heap.use-after-free",
                    f"{nbytes}-byte {op} at {vaddr:#x} overlaps freed "
                    f"[{rec.start:#x}+{rec.size}] ({rec.allocator})",
                    address=rec.start, size=nbytes, op=op,
                )
            j += 1

    # -- TLB / page-table consistency ---------------------------------------

    def check_translations(self, engine: Any, vaddr: int, nbytes: int,
                           op: str) -> None:
        """Validate every translation an access shape walks through."""
        from repro.mem.paging import TranslationFault
        from repro.mem.physical import PAGE_2M, PAGE_4K

        self.checks["tlb"] += 1
        aspace = engine.address_space
        table = aspace.page_table
        total = aspace.physical.total_bytes
        try:
            for entry in table.pages_in_range(vaddr, nbytes):
                paddr = entry.paddr
                if paddr < 0 or paddr + entry.page_size > total \
                        or paddr % entry.page_size:
                    self._violate(
                        "tlb.unbacked-frame",
                        f"PTE {entry.vaddr:#x} points at frame "
                        f"{paddr:#x} outside/misaligned in physical "
                        f"memory ({total} bytes)",
                        address=entry.vaddr, frame=paddr, op=op,
                    )
        except TranslationFault as fault:
            fault_vaddr = getattr(fault, "vaddr", vaddr)
            for page_size in (PAGE_4K, PAGE_2M):
                base = fault_vaddr - fault_vaddr % page_size
                if base in engine.tlb.keys(page_size):
                    self._violate(
                        "tlb.dangling-entry",
                        f"TLB holds {base:#x} ({page_size}-byte page) "
                        f"but the page table has no PTE for it",
                        address=base, op=op,
                    )
            self._violate(
                "tlb.unmapped-range",
                f"{nbytes}-byte {op} at {vaddr:#x} touches unmapped "
                f"address {fault_vaddr:#x}",
                address=fault_vaddr, size=nbytes, op=op,
            )
        # the page run the fast path reads must agree with the page
        # walk, page for page
        run = aspace.translation_run(vaddr, nbytes)
        if run is not None:
            pages, first, last = run
            ps = pages.page_size
            for i, paddr in enumerate(pages.paddr[first:last + 1].tolist(),
                                      start=first):
                page_vaddr = pages.start + i * ps
                entry = table.try_lookup(page_vaddr)
                if entry is None or (entry.vaddr, entry.paddr,
                                     entry.page_size) != (page_vaddr, paddr, ps):
                    self._violate(
                        "tlb.stale-translation",
                        f"fast-path translation for {page_vaddr:#x} "
                        f"disagrees with the page-table walk",
                        address=page_vaddr, op=op,
                    )

    def check_access(self, engine: Any, vaddr: int, nbytes: int,
                     op: str) -> None:
        """The per-access hook: heap + TLB checks as enabled."""
        if self.heap:
            self.check_heap_access(engine.address_space, vaddr, nbytes, op)
        if self.tlb:
            self.check_translations(engine, vaddr, nbytes, op)

    # -- MR / ATT lifetimes -------------------------------------------------

    def on_register(self, mr: Any, aspace: Any) -> None:
        """Record a registration; flags ``mr.duplicate-registration``."""
        self.checks["mr"] += 1
        for rec in self._mrs.values():
            if (rec.registered and rec.aspace is aspace
                    and rec.vaddr == mr.vaddr and rec.length == mr.length):
                self._violate(
                    "mr.duplicate-registration",
                    f"[{mr.vaddr:#x}+{mr.length}] is already registered "
                    f"as MR {rec.mr_id} (new MR {mr.mr_id})",
                    address=mr.vaddr, key=mr.mr_id, duplicate_of=rec.mr_id,
                )
        shadow = _MRShadow(mr, aspace)
        self._mrs[mr.mr_id] = shadow
        self._by_lkey[mr.lkey] = shadow
        self._by_rkey[mr.rkey] = shadow

    def on_deregister(self, mr: Any) -> None:
        """Mark a registration dead (the record is kept: dead keys are
        what ``mr.use-after-dereg`` recognises)."""
        self.checks["mr"] += 1
        rec = self._mrs.get(mr.mr_id)
        if rec is not None:
            rec.registered = False

    def check_lkey(self, mr: Any, lkey: int, op: str) -> None:
        """Flag a local key whose region was deregistered."""
        self.checks["mr"] += 1
        if mr is not None and mr.registered:
            return
        rec = self._by_lkey.get(lkey)
        if rec is not None and not rec.registered:
            self._violate(
                "mr.use-after-dereg",
                f"{op} uses lkey {lkey:#x} of deregistered MR "
                f"{rec.mr_id} [{rec.vaddr:#x}+{rec.length}]",
                address=rec.vaddr, key=lkey, mr_id=rec.mr_id, op=op,
            )

    def check_rkey(self, mr: Any, rkey: int, addr: int, nbytes: int,
                   op: str) -> None:
        """Flag a remote key whose region was deregistered (at rx time,
        before the HCA quietly answers remote-access-error)."""
        self.checks["mr"] += 1
        if mr is not None and mr.registered:
            if mr.contains(addr, nbytes):
                self.check_dma(mr, addr, nbytes, op)
            return
        rec = self._by_rkey.get(rkey)
        if rec is not None and not rec.registered:
            self._violate(
                "mr.use-after-dereg",
                f"{op} targets rkey {rkey:#x} of deregistered MR "
                f"{rec.mr_id} [{rec.vaddr:#x}+{rec.length}]",
                address=addr, key=rkey, mr_id=rec.mr_id, op=op,
            )

    def check_dma(self, mr: Any, addr: int, nbytes: int, op: str) -> None:
        """A DMA over a live MR: every page must still be mapped and
        pinned (otherwise the adapter's translations point at frames the
        OS may have reused)."""
        from repro.mem.paging import TranslationFault

        self.checks["mr"] += 1
        if nbytes <= 0:
            return
        rec = self._mrs.get(mr.mr_id)
        if rec is None or rec.aspace is None:
            return  # registered before the sanitizer was installed
        try:
            for page in rec.aspace.page_table.pages_in_range(addr, nbytes):
                if page.pin_count < 1:
                    self._violate(
                        "mr.unpinned-page",
                        f"{op} DMA walks page {page.vaddr:#x} of MR "
                        f"{mr.mr_id} whose pin count is {page.pin_count}",
                        address=page.vaddr, key=mr.mr_id, op=op,
                    )
        except TranslationFault as fault:
            fault_vaddr = getattr(fault, "vaddr", addr)
            self._violate(
                "mr.unmapped-frame",
                f"{op} DMA over MR {mr.mr_id} touches unmapped address "
                f"{fault_vaddr:#x} (mapping dropped under a live "
                f"registration)",
                address=fault_vaddr, key=mr.mr_id, op=op,
            )

    def check_att(self, mr_id: int, first_entry: int, n_entries: int) -> None:
        """An ATT translation must belong to a live region and stay
        inside its uploaded entry count."""
        self.checks["mr"] += 1
        rec = self._mrs.get(mr_id)
        if rec is None:
            return  # registered before the sanitizer was installed
        if not rec.registered:
            self._violate(
                "att.stale-entry",
                f"ATT translates entry {first_entry} of deregistered MR "
                f"{mr_id} [{rec.vaddr:#x}+{rec.length}]",
                address=rec.vaddr, key=mr_id, entry=first_entry,
            )
        if first_entry < 0 or first_entry + n_entries > rec.n_entries:
            self._violate(
                "att.out-of-range",
                f"ATT entry range [{first_entry}, "
                f"{first_entry + n_entries}) exceeds MR {mr_id}'s "
                f"{rec.n_entries} uploaded entries",
                key=mr_id, entry=first_entry, n_entries=rec.n_entries,
            )

    # -- counter integrity --------------------------------------------------

    def check_amount(self, name: str, amount: Any) -> None:
        """Flag non-integral counter increments (``counter.float-amount``)."""
        self.checks["counter"] += 1
        if not isinstance(amount, int):
            self._violate(
                "counter.float-amount",
                f"counter {str(name)!r} incremented by non-int "
                f"{amount!r} ({type(amount).__name__})",
                counter=str(name), amount=repr(amount),
            )
