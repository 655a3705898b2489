"""Property tests for the run-backed page table and the bulk frame pool.

A state machine drives random mmap/munmap (4 KB and 2 MB), sbrk growth
and shrink, registration, deregistration, fork and CoW write faults
against a real address space, and mirrors every step in a small model:
a dict of ``vaddr -> (paddr, page_size, pins, cow)`` tuples whose frames
come from a second, identically seeded :class:`PhysicalMemory` driven
one frame at a time.  After every step the page table, its page runs
and the frame pools must agree with the model.
"""

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.ib.att import ATTCache, ATTConfig
from repro.ib.driver import OpenIBDriver
from repro.ib.registration import RegistrationEngine
from repro.ib.verbs import ProtectionDomain
from repro.mem import (
    AddressSpace,
    HugePagePoolExhausted,
    HugeTLBfs,
    MappingError,
    PAGE_2M,
    PAGE_4K,
    PhysicalMemory,
)
from repro.mem.address_space import BRK_BASE
from repro.mem.physical import align_up

MB = 1024 * 1024
#: small pools: 24 MB of 4 KB frames spans two 4096-frame shuffle
#: windows, so long runs cross a window refill
_GEOMETRY = dict(total_bytes=32 * MB, hugepages=4, fragmentation=0.7, seed=11)


def _restarts(paddrs, page_size):
    return 1 + sum(b != a + page_size for a, b in zip(paddrs, paddrs[1:]))


class PageTableMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.pm = PhysicalMemory(**_GEOMETRY)
        self.aspace = AddressSpace(self.pm, HugeTLBfs(self.pm))
        self.engine = RegistrationEngine(OpenIBDriver(hugepage_aware=True),
                                         ATTCache(ATTConfig()))
        self.pd = ProtectionDomain.fresh()
        # the model: frames from a twin pool, one alloc/free per page
        self.ref = PhysicalMemory(**_GEOMETRY)
        self.pages = {}
        self.brk = BRK_BASE
        self.mrs = []  # (mr, vaddr, length)
        self.children = []  # (address space, model pages)

    # -- model helpers --------------------------------------------------
    def _free(self, paddr, page_size):
        if page_size == PAGE_2M:
            self.ref.free_hugepage(paddr)
        else:
            self.ref.free_frame(paddr)

    def _map_model(self, start, n, page_size):
        for i in range(n):
            paddr = (self.ref.alloc_hugepage() if page_size == PAGE_2M
                     else self.ref.alloc_frame())
            self.pages[start + i * page_size] = (paddr, page_size, 0, False)

    def _any_pinned(self, lo, hi):
        return any(lo <= v < hi and t[2] for v, t in self.pages.items())

    def _unmap_model(self, pages, lo, hi):
        for v in sorted(v for v in pages if lo <= v < hi):
            paddr, page_size, _, _ = pages.pop(v)
            self._free(paddr, page_size)

    def _vmas(self, kind=None):
        return [v for v in self.aspace.vmas if kind is None or v.kind == kind]

    # -- rules ----------------------------------------------------------
    @rule(n=st.integers(1, 40))
    def mmap_small(self, n):
        vma = self.aspace.mmap(n * PAGE_4K)
        self._map_model(vma.start, n, PAGE_4K)

    @rule(n=st.integers(1, 2))
    def mmap_huge(self, n):
        if self.ref.free_hugepages < n:
            try:
                self.aspace.mmap(n * PAGE_2M, page_size=PAGE_2M)
            except HugePagePoolExhausted:
                return
            raise AssertionError("hugepage mmap beyond the pool succeeded")
        vma = self.aspace.mmap(n * PAGE_2M, page_size=PAGE_2M)
        self._map_model(vma.start, n, PAGE_2M)

    @precondition(lambda self: self._vmas("anon") or self._vmas("huge"))
    @rule(data=st.data())
    def munmap(self, data):
        vma = data.draw(st.sampled_from(
            self._vmas("anon") + self._vmas("huge")))
        if self._any_pinned(vma.start, vma.end):
            try:
                self.aspace.munmap(vma.start)
            except ValueError:
                return
            raise AssertionError("munmap of a pinned page succeeded")
        self.aspace.munmap(vma.start)
        self._unmap_model(self.pages, vma.start, vma.end)

    @rule(delta=st.integers(-12 * PAGE_4K, 12 * PAGE_4K))
    def sbrk(self, delta):
        new_brk = self.brk + delta
        if new_brk < BRK_BASE:
            try:
                self.aspace.sbrk(delta)
            except MappingError:
                return
            raise AssertionError("sbrk below the heap base succeeded")
        old_top, new_top = align_up(self.brk, PAGE_4K), align_up(new_brk, PAGE_4K)
        if new_top < old_top and self._any_pinned(new_top, old_top):
            try:
                self.aspace.sbrk(delta)
            except ValueError:
                return
            raise AssertionError("sbrk shrink over a pinned page succeeded")
        assert self.aspace.sbrk(delta) == self.brk
        if new_top > old_top:
            self._map_model(old_top, (new_top - old_top) // PAGE_4K, PAGE_4K)
        else:
            self._unmap_model(self.pages, new_top, old_top)
        self.brk = new_brk

    @precondition(lambda self: self._vmas())
    @rule(data=st.data())
    def register(self, data):
        vma = data.draw(st.sampled_from(self._vmas()))
        off = data.draw(st.integers(0, vma.length - 1))
        length = data.draw(st.integers(1, vma.length - off))
        vaddr = vma.start + off
        mr, _ns = self.engine.register(self.aspace, self.pd, vaddr, length)
        ps = vma.page_size
        first = vaddr - vaddr % ps
        for v in range(first, vaddr + length, ps):
            paddr, page_size, pins, cow = self.pages[v]
            self.pages[v] = (paddr, page_size, pins + 1, cow)
        assert mr.base == first
        self.mrs.append((mr, vaddr, length))

    @precondition(lambda self: self.mrs)
    @rule(data=st.data())
    def deregister(self, data):
        i = data.draw(st.integers(0, len(self.mrs) - 1))
        mr, vaddr, length = self.mrs.pop(i)
        self.engine.deregister(self.aspace, mr)
        for v, (paddr, page_size, pins, cow) in list(self.pages.items()):
            if v + page_size > vaddr and v < vaddr + length:
                self.pages[v] = (paddr, page_size, pins - 1, cow)

    @rule()
    def fork(self):
        if any(t[2] for t in self.pages.values()):
            try:
                self.aspace.fork()
            except MappingError:
                return
            raise AssertionError("fork with pinned pages succeeded")
        child = self.aspace.fork()
        # share order: 4 KB pages then hugepages, each in address order
        for v in sorted(self.pages, key=lambda v: (self.pages[v][1], v)):
            paddr, page_size, pins, _ = self.pages[v]
            self.ref.share_frame(paddr)
            self.pages[v] = (paddr, page_size, pins, True)
        self.children.append((child, dict(self.pages)))

    @precondition(lambda self: self.children)
    @rule()
    def child_exit(self):
        child, pages = self.children.pop(0)
        heap_top = align_up(child.brk, PAGE_4K)
        child.destroy()
        # destroy(): non-heap VMAs in address order, then the heap
        for v in sorted(pages):
            if not BRK_BASE <= v < heap_top:
                paddr, page_size, _, _ = pages[v]
                self._free(paddr, page_size)
        self._unmap_model(pages, BRK_BASE, heap_top)

    @precondition(lambda self: self.pages)
    @rule(data=st.data())
    def write_fault(self, data):
        v = data.draw(st.sampled_from(sorted(self.pages)))
        paddr, page_size, pins, cow = self.pages[v]
        if cow and page_size == PAGE_2M and not self.ref.free_hugepages:
            try:
                self.aspace.write_fault(v)
            except HugePagePoolExhausted:
                return
            raise AssertionError("CoW hugepage copy from an empty pool")
        assert self.aspace.write_fault(v) == cow
        if cow:
            new = (self.ref.alloc_hugepage() if page_size == PAGE_2M
                   else self.ref.alloc_frame())
            self._free(paddr, page_size)
            self.pages[v] = (new, page_size, pins, False)

    # -- invariants -------------------------------------------------------
    @invariant()
    def pages_match_model(self):
        pt = self.aspace.page_table
        for v, (paddr, page_size, pins, cow) in self.pages.items():
            for probe in (v, v + page_size - 1):
                e = pt.lookup(probe)
                assert (e.vaddr, e.paddr, e.page_size, e.pin_count, e.cow) == (
                    v, paddr, page_size, pins, cow)
        assert pt.n_small == sum(t[1] == PAGE_4K for t in self.pages.values())
        assert pt.n_huge == sum(t[1] == PAGE_2M for t in self.pages.values())
        assert [e.vaddr for e in pt.entries()] == sorted(
            self.pages, key=lambda v: (self.pages[v][1], v))

    @invariant()
    def vmas_are_single_runs(self):
        for vma in self._vmas():
            vpages = list(range(vma.start, vma.end, vma.page_size))
            walked = self.aspace.page_table.pages_in_range(vma.start, vma.length)
            assert [e.vaddr for e in walked] == vpages
            run = self.aspace.translation_run(vma.start, vma.length)
            assert run is not None
            pages, first, last = run
            paddrs = [self.pages[v][0] for v in vpages]
            assert pages.paddr[first:last + 1].tolist() == paddrs
            assert pages.restarts(first, last) == _restarts(paddrs, vma.page_size)
            # an inner span reads its restarts from the same prefix
            if len(vpages) > 2:
                sub = self.aspace.translation_run(
                    vma.start + vma.page_size, vma.length - 2 * vma.page_size)
                assert sub[0].restarts(sub[1], sub[2]) == _restarts(
                    paddrs[1:-1], vma.page_size)

    @invariant()
    def pools_match_model(self):
        assert self.pm.free_small_frames == self.ref.free_small_frames
        assert self.pm.free_hugepages == self.ref.free_hugepages
        assert self.pm.dump_state() == self.ref.dump_state()


PageTableMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestPageTableModel = PageTableMachine.TestCase


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(
    st.one_of(
        st.tuples(st.just("alloc"), st.integers(1, 2500)),
        st.tuples(st.just("free"), st.integers(1, 300)),
    ),
    min_size=1, max_size=12,
))
def test_alloc_frames_equals_repeated_alloc_frame(ops):
    """``alloc_frames(n)`` hands out what n ``alloc_frame()`` calls would,
    across shuffle-window refills and after bulk frees."""
    bulk = PhysicalMemory(**_GEOMETRY)
    single = PhysicalMemory(**_GEOMETRY)
    held = []
    for op, n in ops:
        if op == "alloc":
            n = min(n, single.free_small_frames)
            if not n:
                continue
            got = bulk.alloc_frames(n).tolist()
            assert got == [single.alloc_frame() for _ in range(n)]
            held += got
        elif held:
            freed, held = held[-n:], held[:-n]
            bulk.free_frames(freed)
            for paddr in freed:
                single.free_frame(paddr)
        assert bulk.free_small_frames == single.free_small_frames
        assert bulk.dump_state() == single.dump_state()
