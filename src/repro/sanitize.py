"""SimSan: the simulator's one invariant checker, with two triggers.

The *access* trigger is ASAN/MSAN for the simulated allocators and
verbs stack: shadow state plus per-operation hooks that fire at the
faulting access, with the exact address/key in hand.  The *snapshot*
trigger (:func:`sweep_cluster`, run by ``--audit`` and at every
checkpoint) sweeps the state of a finished cluster for the
relationships between layers that no single layer can see broken.
Rules both triggers check share one predicate, so a corruption gets the
same rule id whichever trigger finds it.

Rule groups (``--sanitize=heap,mr,tlb,counter``) select the access
hooks:

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
  key whose region was deregistered (checked at ``post_send``/rx time).
- ``mr.duplicate-registration`` — two *live* registrations of the
  identical range in one address space.  Mere overlap is **legal**: the
  lazy-dereg registration cache keeps MRs over ranges the application
  has freed, and a later wider registration may overlap them.
- ``mr.unmapped-frame`` / ``mr.unpinned-page`` — a page of a live MR
  has lost its mapping or its pin (the adapter's ATT would point at a
  stale frame); checked per DMA and per snapshot.
- ``att.stale-entry`` / ``att.out-of-range`` — an ATT entry of a dead
  region, or an entry index past the region's uploaded translation
  count; checked per translation and per snapshot.

``tlb`` — page-table/TLB consistency at each translated access:

- ``tlb.stale-translation`` — the page run the fast path reads
  disagrees with the page-table walk (vaddr, frame or page size).
- ``tlb.unbacked-frame`` — a PTE's frame is misaligned or outside
  physical memory.
- ``tlb.dangling-entry`` — the TLB holds a page inside a live VMA that
  no PTE of its size backs (checked per faulting access and per
  snapshot; an entry left after ``munmap`` is benign staleness).
- ``tlb.unmapped-range`` — an access shape touches unmapped memory.

``counter`` — ``counter.float-amount``: a non-integer amount entering a
:class:`~repro.analysis.counters.CounterSet` (floats drift across
platforms and break byte-identical reports; the ``float-counter``
rule of ``tools/simlint`` is the static version of this rule).

The snapshot trigger always runs every shared rule above plus these,
which no access can see and no group selects:

- ``engine.event-heap`` — the event heap is not time-monotonic, has
  duplicate or future sequence numbers, or breaks the heap property.
- ``cache.unbacked-line`` — a data-cache line outside physical memory.
- ``alloc.overlap`` / ``alloc.linkage`` / ``alloc.freelist`` — libc
  blocks overlap or link asymmetrically, a bin names a missing block,
  or the hugepage library's free list is unsorted or overlaps a live
  block.
- ``qp.balance`` — QP slot accounting does not balance posted against
  completed work, or a queue holds items while getters block.

The enablement pattern is :mod:`repro.trace`'s: a module-level
``_active`` handle, hook sites paying one attribute read + ``None``
check when sanitizing is off, and :func:`capturing` for scoped
installs.  Both triggers only *read* model state (plus the shadow) and
never touch clocks, RNG streams or counters, so a clean checked run is
**byte-identical** to an unchecked one — pinned by hypothesis tests in
``tests/test_sanitize.py``.

Violations raise :class:`SanitizerError` carrying the rule id, the
faulting address/key, the tick and a context dict; when a tracer is
installed a ``sanitize.violation`` instant is emitted first, so the
report links into the Chrome trace timeline (see
``docs/static_analysis.md``).
"""

from __future__ import annotations

import weakref
from bisect import bisect_right, insort
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, NoReturn, Optional, Tuple

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
    """Parse a ``--sanitize`` value into rule groups.

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
    tick: simulated tick of the violation: the tracer's clock at a
        faulting access (0 when no tracer is attached), the cluster's
        clock at a snapshot.
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


def _error(rule: str, message: str, *, address: Optional[int] = None,
           key: Optional[int] = None, **context: Any) -> SanitizerError:
    """An unraised violation (tick 0 until its trigger sets it)."""
    return SanitizerError(rule, message, address=address, key=key,
                          context=context)


def _report(err: SanitizerError) -> NoReturn:
    """Raise *err*, first emitting its ``sanitize.violation`` trace
    instant when a tracer is installed."""
    tracer = trace.active()
    if tracer is not None:
        attrs = dict(err.context)
        if err.address is not None:
            attrs["address"] = err.address
        if err.key is not None:
            attrs["key"] = err.key
        tracer.instant("sanitize.violation", track="sanitize",
                       rule=err.rule, **attrs)
    raise err


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
    """Lifetime record of one registration (kept after dereg).  It holds
    its address space weakly: the record outlives the region, and must
    not keep the process's memory alive."""

    __slots__ = ("mr_id", "lkey", "rkey", "vaddr", "length", "n_entries",
                 "aspace", "registered")

    def __init__(self, mr: Any, aspace: Any) -> None:
        self.mr_id = mr.mr_id
        self.lkey = mr.lkey
        self.rkey = mr.rkey
        self.vaddr = mr.vaddr
        self.length = mr.length
        self.n_entries = mr.n_entries
        self.aspace = weakref.ref(aspace)
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
        #: address space -> its heap shadow; weakly keyed, so a shadow
        #: goes when its address space goes
        self._heaps: "weakref.WeakKeyDictionary[Any, _HeapShadow]" = (
            weakref.WeakKeyDictionary())
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
                 **context: Any) -> NoReturn:
        self._raise(_error(rule, message, address=address, key=key,
                           **context))

    @staticmethod
    def _raise(err: SanitizerError) -> NoReturn:
        """Report *err* at the faulting access, on the tracer's clock."""
        tracer = trace.active()
        err.tick = tracer._now() if tracer is not None else 0
        _report(err)

    def report(self) -> str:
        """One-line per-group summary of checks performed."""
        done = ", ".join(f"{g}={self.checks[g]}" for g in self.groups)
        return f"sanitize: clean ({done} checks)"

    # -- heap shadow --------------------------------------------------------

    def _heap_shadow(self, aspace: Any) -> _HeapShadow:
        shadow = self._heaps.get(aspace)
        if shadow is None:
            shadow = self._heaps[aspace] = _HeapShadow()
        return shadow

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
        shadow = self._heaps.get(aspace)
        if shadow is None:
            return
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
                    err = _tlb_dangling(aspace, base, page_size, op=op)
                    if err is not None:
                        self._raise(err)
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
            if (rec.registered and rec.aspace() is aspace
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
        self.checks["mr"] += 1
        rec = self._mrs.get(mr.mr_id)
        aspace = None if rec is None else rec.aspace()
        if aspace is None:
            # registered before the sanitizer was installed, or by a
            # process that is gone
            return
        err = _mr_pages(aspace, mr.mr_id, addr, nbytes, op=op)
        if err is not None:
            self._raise(err)

    def check_att(self, mr_id: int, first_entry: int, n_entries: int) -> None:
        """An ATT translation must belong to a live region and stay
        inside its uploaded entry count."""
        self.checks["mr"] += 1
        rec = self._mrs.get(mr_id)
        if rec is None:
            return  # registered before the sanitizer was installed
        err = _att_entries(mr_id, first_entry, n_entries, rec)
        if err is not None:
            self._raise(err)

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


# -- rules both triggers check ------------------------------------------------

def _tlb_dangling(aspace: Any, vpage: int, page_size: int,
                  **context: Any) -> Optional[SanitizerError]:
    """``tlb.dangling-entry`` for a page the TLB holds: inside a live VMA
    with no *page_size* PTE.  A page outside every VMA is benign
    staleness — real hardware keeps entries after munmap until eviction
    or shootdown."""
    if vpage in aspace.page_table.leaf_table(page_size):
        return None
    vma = aspace.find_vma(vpage)
    if vma is None:
        return None
    return _error(
        "tlb.dangling-entry",
        f"TLB holds {vpage:#x} inside live VMA [{vma.start:#x}, "
        f"+{vma.length}) but no {page_size}-byte PTE backs it",
        address=vpage, vma_kind=vma.kind, page_size=page_size, **context)


def _mr_pages(aspace: Any, mr_id: int, addr: int, nbytes: int,
              **context: Any) -> Optional[SanitizerError]:
    """``mr.unpinned-page`` / ``mr.unmapped-frame`` for ``[addr,
    addr+nbytes)`` of live MR *mr_id* in *aspace*."""
    from repro.mem.paging import TranslationFault

    if nbytes <= 0:
        return None
    try:
        for page in aspace.page_table.pages_in_range(addr, nbytes):
            if page.pin_count < 1:
                return _error(
                    "mr.unpinned-page",
                    f"page {page.vaddr:#x} of MR {mr_id} is not pinned "
                    f"(pin count {page.pin_count})",
                    address=page.vaddr, key=mr_id, **context)
    except TranslationFault as fault:
        return _error(
            "mr.unmapped-frame",
            f"MR {mr_id} covers unmapped address {fault.vaddr:#x} "
            f"(mapping dropped under a live registration)",
            address=fault.vaddr, key=mr_id, **context)
    return None


def _att_entries(mr_id: int, first: int, n: int, region: Any,
                 **context: Any) -> Optional[SanitizerError]:
    """``att.stale-entry`` / ``att.out-of-range`` for ATT entries
    ``[first, first+n)`` of *mr_id*; *region* is its registration record
    (None when no live region has the id)."""
    if region is None or not region.registered:
        return _error(
            "att.stale-entry",
            f"ATT translates entry {first} of unknown or deregistered "
            f"MR {mr_id}",
            address=getattr(region, "vaddr", None), key=mr_id, entry=first,
            **context)
    if first < 0 or first + n > region.n_entries:
        return _error(
            "att.out-of-range",
            f"ATT entry range [{first}, {first + n}) outside MR {mr_id}'s "
            f"{region.n_entries} uploaded entries",
            key=mr_id, entry=first, n_entries=region.n_entries, **context)
    return None


# -- snapshot trigger: a state sweep of a finished cluster ------------------

def sweep_cluster(cluster: Any,
                  label: str = "cluster") -> List[SanitizerError]:
    """Every snapshot rule over *cluster*, most severe first.  The
    violations are returned, not raised; each one's tick is the
    cluster's clock and its ``location`` context names the object."""
    found = _sweep_kernel(cluster.kernel, f"{label}/kernel")
    for node in cluster.nodes:
        found += _sweep_machine(node, f"{label}/{node.name}")
    for err in found:
        err.tick = cluster.kernel.now
    return found


def check_snapshot(cluster: Any, label: str = "cluster") -> None:
    """Raise the first violation :func:`sweep_cluster` finds."""
    found = sweep_cluster(cluster, label)
    if found:
        _report(found[0])


def _sweep_kernel(kernel: Any, location: str) -> List[SanitizerError]:
    from repro.engine.core import item_name

    found: List[SanitizerError] = []
    queue = kernel._queue
    for when, priority, seq, item in queue:
        if when < kernel._now:
            found.append(_error(
                "engine.event-heap",
                f"event scheduled in the past (t={when} < now={kernel._now})",
                location=location, seq=seq, priority=priority,
                type=item_name(item)))
        if seq > kernel._seq:
            found.append(_error(
                "engine.event-heap",
                f"event seq {seq} exceeds kernel seq {kernel._seq}",
                location=location, when=when))
    if len({entry[2] for entry in queue}) != len(queue):
        found.append(_error(
            "engine.event-heap",
            "duplicate event sequence numbers in the event heap",
            location=location, entries=len(queue)))
    for i in range(len(queue)):
        for child in (2 * i + 1, 2 * i + 2):
            if child < len(queue) and queue[child][:3] < queue[i][:3]:
                found.append(_error(
                    "engine.event-heap",
                    f"heap property broken at index {i} (child {child} "
                    f"sorts first)",
                    location=location, parent=queue[i][:3],
                    child=queue[child][:3]))
    return found


def _sweep_machine(machine: Any, label: str) -> List[SanitizerError]:
    from repro.mem.physical import PAGE_2M, PAGE_4K

    live = {mr.mr_id: mr for mr in machine.hca._mrs_by_lkey.values()
            if mr.registered}
    found: List[SanitizerError] = []
    for mr in live.values():
        # separate per-process address spaces may reuse virtual
        # addresses, so the MR passes if *any* process fully maps and
        # pins its range
        err: Optional[SanitizerError] = None
        for proc in machine.processes:
            if proc.aspace.find_vma(mr.vaddr) is None:
                continue
            err = _mr_pages(proc.aspace, mr.mr_id, mr.vaddr, mr.length,
                            location=f"{label}/MR{mr.mr_id}")
            if err is None:
                break
        else:
            found.append(err or _error(
                "mr.unmapped-frame",
                f"no process maps MR {mr.mr_id}'s registered range",
                address=mr.vaddr, key=mr.mr_id,
                location=f"{label}/MR{mr.mr_id}"))
    for mr_id, entry in machine.att.keys():
        err = _att_entries(mr_id, entry, 1, live.get(mr_id),
                           location=f"{label}/att")
        if err is not None:
            found.append(err)
    found += _sweep_qps(machine.hca, label)
    total = machine.physical.total_bytes
    for proc in machine.processes:
        where = f"{label}/{proc.name}"
        for size in (PAGE_4K, PAGE_2M):
            for vpage in proc.engine.tlb.keys(size):
                err = _tlb_dangling(proc.aspace, vpage, size,
                                    location=f"{where}/tlb")
                if err is not None:
                    found.append(err)
        line_size = proc.engine.cache.config.line_size
        for line in proc.engine.cache.keys():
            if not 0 <= line * line_size < total:
                found.append(_error(
                    "cache.unbacked-line",
                    f"cached line at paddr {line * line_size:#x} outside "
                    f"physical memory ({total} bytes)",
                    location=f"{where}/cache"))
        found += _sweep_libc(proc.libc, f"{where}/libc")
        if proc.allocator is not proc.libc:
            found += _sweep_hugepage_lib(proc.allocator,
                                         f"{where}/hugepage_lib")
    return found


def _sweep_libc(libc: Any, location: str) -> List[SanitizerError]:
    found: List[SanitizerError] = []
    blocks = libc._blocks
    ordered = sorted(blocks.values(), key=lambda b: b.addr)
    for a, b in zip(ordered, ordered[1:]):
        if a.addr + a.size > b.addr:
            found.append(_error(
                "alloc.overlap",
                f"heap blocks {a.addr:#x}(+{a.size}) and {b.addr:#x} overlap",
                location=location, a_free=a.free, b_free=b.free))
    for block in ordered:
        for direction, neighbour in (("next", block.next),
                                     ("prev", block.prev)):
            if neighbour is None:
                continue
            other = blocks.get(neighbour)
            back = None if other is None else (
                other.prev if direction == "next" else other.next)
            if other is None or back != block.addr:
                found.append(_error(
                    "alloc.linkage",
                    f"block {block.addr:#x}.{direction} -> {neighbour:#x} "
                    + ("points at a missing block" if other is None else
                       "has no matching back-link"),
                    location=location))
    for size, addrs in libc._fastbins.items():
        for addr in addrs:
            block = blocks.get(addr)
            if block is None or not block.in_fastbin:
                found.append(_error(
                    "alloc.freelist",
                    f"fastbin[{size}] references "
                    f"{'missing' if block is None else 'non-fastbin'} "
                    f"block {addr:#x}",
                    location=location))
    for size, addr in libc._sorted_bin:
        block = blocks.get(addr)
        if block is None or not block.free or block.size != size:
            found.append(_error(
                "alloc.freelist",
                f"sorted bin entry ({size}, {addr:#x}) does not match a "
                f"free block of that size",
                location=location))
    return found


def _sweep_hugepage_lib(alloc: Any, location: str) -> List[SanitizerError]:
    from repro.alloc.freelist import CHUNK_SIZE

    found: List[SanitizerError] = []
    freelist = alloc.management.freelist
    if not freelist.invariant_ok():
        found.append(_error(
            "alloc.freelist",
            "chunk free list is unsorted, misaligned or self-overlapping",
            location=location))
    for start, n_chunks in sorted(alloc.management._live.items()):
        end = start + n_chunks * CHUNK_SIZE
        for extent in freelist.extents:
            if extent.start < end and start < extent.end:
                found.append(_error(
                    "alloc.overlap",
                    f"free extent [{extent.start:#x}, {extent.end:#x}) "
                    f"overlaps live block [{start:#x}, {end:#x})",
                    location=location))
    return found


def _sweep_qps(hca: Any, label: str) -> List[SanitizerError]:
    found: List[SanitizerError] = []
    outstanding: Dict[int, int] = {}
    for qp, _wr in hca._outstanding.values():
        outstanding[qp.qp_num] = outstanding.get(qp.qp_num, 0) + 1
    for qp in hca._qps.values():
        location = f"{label}/QP{qp.qp_num}"
        in_use = qp.wr_slots.in_use
        if in_use > qp.max_send_wr:
            found.append(_error(
                "qp.balance",
                f"{in_use} WR slots in use exceeds queue depth "
                f"{qp.max_send_wr}",
                location=location))
        queued = len(qp.send_q.items)
        accounted = queued + outstanding.get(qp.qp_num, 0)
        if in_use < accounted:
            found.append(_error(
                "qp.balance",
                f"{accounted} WRs queued or outstanding but only {in_use} "
                f"send slots held: completions outran posts",
                location=location, queued=queued))
        stores = [("send_q", qp.send_q), ("recv_q", qp.recv_q)]
        stores += [(name, cq.store) for name, cq in
                   (("send_cq", qp.send_cq), ("recv_cq", qp.recv_cq))
                   if cq is not None]
        for name, store in stores:
            if store._items and store._getters:
                found.append(_error(
                    "qp.balance",
                    f"{len(store._items)} items waiting while "
                    f"{len(store._getters)} getters block: dispatch wedged",
                    location=f"{location}/{name}"))
    return found
