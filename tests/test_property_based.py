"""Property-based tests (hypothesis) on core data structures/invariants."""

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.alloc.freelist import CHUNK_SIZE, ChunkFreeList
from repro.alloc.libc import LibcAllocator
from repro.engine import SimKernel, TickClock
from repro.ib.att import ATTCache, ATTConfig
from repro.mem import (
    AddressSpace,
    HugeTLBfs,
    PAGE_2M,
    PAGE_4K,
    PhysicalMemory,
    TLBConfig,
)
from repro.mem.tlb import SplitTLB

MB = 1024 * 1024

# allocator op streams: (is_malloc, size_or_index)
alloc_ops = st.lists(
    st.tuples(st.booleans(), st.integers(min_value=1, max_value=300_000)),
    min_size=1,
    max_size=60,
)


class TestChunkFreeListProperties:
    @given(
        ops=st.lists(
            st.tuples(st.booleans(), st.integers(min_value=1, max_value=64)),
            min_size=1,
            max_size=80,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_invariants_under_arbitrary_ops(self, ops):
        """Sorted, aligned, non-overlapping extents; chunk conservation."""
        fl = ChunkFreeList()
        base = 0x100000
        total = 4096
        fl.insert(base, total)
        live = {}
        for do_alloc, n in ops:
            if do_alloc:
                vaddr, _ = fl.take_first_fit(n)
                if vaddr is None:
                    fl.coalesce()
                    vaddr, _ = fl.take_first_fit(n)
                if vaddr is not None:
                    live[vaddr] = n
            elif live:
                vaddr = sorted(live)[0]
                fl.insert(vaddr, live.pop(vaddr))
            assert fl.invariant_ok()
            assert fl.free_chunks + sum(live.values()) == total

    @given(sizes=st.lists(st.integers(min_value=1, max_value=32), min_size=2,
                          max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_allocations_never_overlap(self, sizes):
        fl = ChunkFreeList()
        fl.insert(0x100000, 2048)
        spans = []
        for n in sizes:
            vaddr, _ = fl.take_first_fit(n)
            if vaddr is None:
                continue
            spans.append((vaddr, vaddr + n * CHUNK_SIZE))
        spans.sort()
        for (a0, a1), (b0, _b1) in zip(spans, spans[1:]):
            assert a1 <= b0

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_coalesce_preserves_chunks(self, data):
        fl = ChunkFreeList()
        starts = data.draw(
            st.lists(st.integers(min_value=0, max_value=200), min_size=1,
                     max_size=30, unique=True)
        )
        for s in starts:
            fl.insert(0x100000 + s * 4 * CHUNK_SIZE, 2)
        before = fl.free_chunks
        fl.coalesce()
        assert fl.free_chunks == before
        assert fl.invariant_ok()


class TestLibcAllocatorProperties:
    @given(ops=alloc_ops)
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_no_overlap_and_balanced_accounting(self, ops):
        pm = PhysicalMemory(512 * MB, hugepages=8)
        aspace = AddressSpace(pm, HugeTLBfs(pm))
        libc = LibcAllocator(aspace)
        live = {}  # vaddr -> size
        for do_malloc, arg in ops:
            if do_malloc:
                p = libc.malloc(arg)
                # no overlap with any live allocation
                for q, qsize in live.items():
                    assert p + arg <= q or q + qsize <= p
                live[p] = arg
            elif live:
                victim = sorted(live)[arg % len(live)]
                live.pop(victim)
                libc.free(victim)
        assert libc.live_allocations == len(live)
        assert libc.stats.current_bytes == sum(live.values())
        for p in sorted(live):
            libc.free(p)
        assert libc.stats.current_bytes == 0

    @given(ops=alloc_ops)
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_hugepage_library_placement_invariant(self, ops):
        """Every management-layer allocation is hugepage-backed; every
        libc-delegated one is not."""
        from repro.alloc import HugepageLibraryAllocator

        pm = PhysicalMemory(1024 * MB, hugepages=256)
        aspace = AddressSpace(pm, HugeTLBfs(pm))
        lib = HugepageLibraryAllocator(aspace)
        live = []
        for do_malloc, arg in ops:
            if do_malloc:
                p = lib.malloc(arg)
                _, page_size = aspace.translate(p)
                if arg >= lib.config.cutoff_bytes:
                    assert page_size == PAGE_2M
                else:
                    assert page_size == PAGE_4K
                live.append(p)
            elif live:
                lib.free(live.pop(arg % len(live)))


class TestTLBProperties:
    @given(
        accesses=st.lists(st.integers(min_value=0, max_value=2000), min_size=1,
                          max_size=300),
        entries=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=50, deadline=None)
    def test_resident_bounded_and_recency_hit(self, accesses, entries):
        tlb = SplitTLB(TLBConfig(entries_4k=entries, entries_2m=4))
        for page in accesses:
            tlb.access(page * PAGE_4K, PAGE_4K)
            assert tlb.resident(PAGE_4K) <= entries
        # immediately repeated access always hits
        hit, _ = tlb.access(accesses[-1] * PAGE_4K, PAGE_4K)
        assert hit

    @given(
        n=st.integers(min_value=1, max_value=100),
        region_factor=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=50, deadline=None)
    def test_analytic_random_misses_bounded(self, n, region_factor):
        tlb = SplitTLB(TLBConfig())
        region = region_factor * PAGE_2M
        misses = tlb.analytic_random_misses(n, region, PAGE_4K)
        assert 0 <= misses <= n


class TestATTProperties:
    @given(
        keys=st.lists(
            st.tuples(st.integers(min_value=1, max_value=5),
                      st.integers(min_value=0, max_value=100)),
            min_size=1, max_size=300,
        ),
        entries=st.integers(min_value=1, max_value=32),
    )
    @settings(max_examples=50, deadline=None)
    def test_capacity_respected_and_stalls_consistent(self, keys, entries):
        att = ATTCache(ATTConfig(entries=entries, fetch_ns=10.0))
        for mr, idx in keys:
            hit, ns = att.access(mr, idx)
            assert (ns == 0.0) == hit
            assert att.resident <= entries


class TestEngineDeterminismProperty:
    @given(delays=st.lists(st.integers(min_value=0, max_value=1000),
                           min_size=1, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_event_order_deterministic(self, delays):
        def trace_of():
            k = SimKernel()
            log = []

            def worker(i, d):
                yield k.timeout(d)
                log.append((k.now, i))

            for i, d in enumerate(delays):
                k.process(worker(i, d))
            k.run()
            return log

        first, second = trace_of(), trace_of()
        assert first == second
        times = [t for t, _ in first]
        assert times == sorted(times)

    @given(ns=st.floats(min_value=0, max_value=1e9, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_tick_conversion_monotone(self, ns):
        clock = TickClock(206.25)
        assert clock.ns_to_ticks(ns) <= clock.ns_to_ticks(ns + 1000)
        assert clock.ns_to_ticks(ns) >= 0


def _run_faulted_transfers(fault_plan, n_msgs=2, size=32 * 1024):
    """Two-rank rendezvous workload; returns (app ticks, counters,
    received payloads)."""
    from repro.core.placement import BufferPlacer, PlacementPolicy
    from repro.mpi.api import MPIConfig, MPIWorld
    from repro.systems import Cluster, presets

    cluster = Cluster(presets.opteron_infinihost_pcie(), n_nodes=2,
                      fault_plan=fault_plan)
    world = MPIWorld(cluster, ppn=1, config=MPIConfig())

    def program(comm):
        placer = BufferPlacer(comm.proc)
        buf = placer.place(size, PlacementPolicy.SMALL_PAGES, offset=0)
        if comm.rank == 0:
            for i in range(n_msgs):
                yield from comm.send(1, i, size, addr=buf.addr,
                                     payload=("m", i))
            return None
        got = []
        for i in range(n_msgs):
            payload, *_ = yield from comm.recv(0, i, addr=buf.addr)
            got.append(payload)
        return got

    results = world.run(program)
    ticks = max(r.app_ticks for r in results)
    return ticks, cluster.aggregate_counters(), results[1].value


def _run_or_abort(plan):
    """A faulted run either completes or aborts cleanly; both outcomes
    must be deterministic, so both are comparable values."""
    from repro.faults import MPITransportError

    try:
        return _run_faulted_transfers(plan)
    except MPITransportError as exc:
        return ("aborted", str(exc))


class TestFaultInjectionProperties:
    @given(seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_same_seed_is_bit_identical(self, seed):
        from repro.faults import FaultPlan

        plan = FaultPlan(link_loss=0.05, link_corrupt=0.02,
                         reg_transient=0.1, seed=seed)
        assert _run_or_abort(plan) == _run_or_abort(plan)

    @given(seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_faults_never_speed_things_up(self, seed):
        from repro.faults import FaultPlan

        base_ticks, _, base_payloads = _run_faulted_transfers(None)
        outcome = _run_or_abort(FaultPlan(link_loss=0.05, seed=seed))
        if outcome[0] == "aborted":
            # retry exhaustion is a legal outcome — but it must surface
            # as a clean transport error, which _run_or_abort caught
            return
        ticks, counters, payloads = outcome
        # payloads survive whatever the link does; time only grows
        assert payloads == base_payloads
        assert ticks >= base_ticks
        if counters.get("faults.link.dropped", 0):
            # every drop must surface as a retry; it need not surface
            # as extra ticks — a retransmission that fits entirely
            # inside the pipeline's overlap window costs zero wall
            # ticks, and hypothesis does find such schedules
            assert counters.get("faults.qp.retries", 0) >= 1


class TestAddressSpaceProperties:
    @given(
        lengths=st.lists(st.integers(min_value=1, max_value=64 * 4096),
                         min_size=1, max_size=20)
    )
    @settings(max_examples=30, deadline=None)
    def test_mmap_munmap_conserves_frames(self, lengths):
        pm = PhysicalMemory(256 * MB, hugepages=8)
        aspace = AddressSpace(pm, HugeTLBfs(pm))
        before = pm.free_small_frames
        vmas = [aspace.mmap(n) for n in lengths]
        # all VMAs disjoint
        spans = sorted((v.start, v.end) for v in vmas)
        for (a0, a1), (b0, _b1) in zip(spans, spans[1:]):
            assert a1 <= b0
        for v in vmas:
            aspace.munmap(v.start)
        assert pm.free_small_frames == before
