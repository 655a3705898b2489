"""Fast-path <-> reference-path equivalence (the perf PR's contract).

Every batched costing routine in the simulator must be *bit-equivalent*
to the per-element reference loop it replaces: identical reported ticks,
identical counter values, identical model state afterwards (LRU content
and order, pin counts).  These tests enforce that property-style, from
the shared LRU-sweep primitive all the way up to whole figure drivers —
including runs with an active :class:`~repro.faults.FaultPlan`, where
the HCA's callback chains take their fault variants (watchdog,
retransmission, idempotent receive) on both settings of the toggle.
"""

from collections import OrderedDict

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings
import pytest

from repro import fastpath
from repro.analysis import CounterSet
from repro.engine import SimKernel, TickClock
from repro.fastpath import RunLRU
from repro.ib.att import ATTCache, ATTConfig
from repro.ib.link import LinkConfig
from repro.mem import (
    AddressSpace,
    CacheConfig,
    HugeTLBfs,
    PAGE_2M,
    PAGE_4K,
    PhysicalMemory,
    TLBConfig,
)
from repro.mem.access import MemoryAccessEngine
from repro.mem.tlb import SplitTLB

KB = 1024
MB = 1024 * 1024


# ---------------------------------------------------------------------------
# the shared primitive: RunLRU
# ---------------------------------------------------------------------------

def _replay_reference(array, first_key, n_keys, stride, capacity):
    """The key-by-key loop RunLRU's docstring promises to match."""
    hits = 0
    for key in range(first_key, first_key + n_keys * stride, stride):
        if key in array:
            array.move_to_end(key)
            hits += 1
        else:
            while len(array) >= capacity:
                array.popitem(last=False)
            array[key] = True
    return hits, n_keys - hits


def _lru_keys(lru):
    return [key for _, key in lru.keys()]


class TestLRUSweepPrimitive:
    @given(
        pre=st.lists(st.integers(min_value=0, max_value=60), max_size=60),
        first=st.integers(min_value=0, max_value=50),
        n=st.integers(min_value=1, max_value=120),
        stride=st.sampled_from([1, 2, 4]),
        capacity=st.integers(min_value=1, max_value=24),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_replay(self, pre, first, n, stride, capacity):
        fast, ref = RunLRU(capacity, stride), OrderedDict()
        # identical pre-state, built through single accesses on the
        # sweep's key grid so hits/evictions actually occur
        for k in pre:
            fast.access(k * stride)
            _replay_reference(ref, k * stride, 1, stride, capacity)
        hits = fast.sweep(first * stride, n)
        want = _replay_reference(ref, first * stride, n, stride, capacity)
        assert (hits, n - hits) == want
        assert _lru_keys(fast) == list(ref)

    @given(
        capacity=st.integers(min_value=1, max_value=8),
        rounds=st.integers(min_value=2, max_value=4),
        factor=st.integers(min_value=2, max_value=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_repeated_long_sweep_shortcut(self, capacity, rounds, factor):
        """Back-to-back >=2x-capacity sweeps: all misses, and the
        content ends as one run of the last `capacity` keys."""
        n = factor * capacity
        fast, ref = RunLRU(capacity), OrderedDict()
        for _ in range(rounds):
            hits = fast.sweep(0, n)
            want = _replay_reference(ref, 0, n, 1, capacity)
            assert (hits, n - hits) == want
            assert _lru_keys(fast) == list(ref)
            assert fast.runs() == [(0, n - capacity, capacity)]


# ---------------------------------------------------------------------------
# stateful hardware models: TLB, ATT
# ---------------------------------------------------------------------------

class TestSweepEquivalence:
    @given(
        ops=st.lists(
            st.tuples(st.integers(min_value=0, max_value=50),
                      st.integers(min_value=1, max_value=40)),
            min_size=1, max_size=12,
        ),
        entries=st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=60, deadline=None)
    def test_tlb_sweep_matches_access_loop(self, ops, entries):
        config = TLBConfig(entries_4k=entries, entries_2m=4)
        fast_counters, ref_counters = CounterSet(), CounterSet()
        fast_tlb = SplitTLB(config, fast_counters)
        ref_tlb = SplitTLB(config, ref_counters)
        for page, n_pages in ops:
            got = fast_tlb.sweep(page * PAGE_4K, n_pages, PAGE_4K)
            hits = misses = 0
            ns = 0.0
            for i in range(n_pages):
                hit, extra = ref_tlb.access((page + i) * PAGE_4K, PAGE_4K)
                hits += hit
                misses += not hit
                ns += extra
            assert got == (hits, misses, ns)
            assert fast_tlb.keys(PAGE_4K) == ref_tlb.keys(PAGE_4K)
        assert fast_counters.snapshot() == ref_counters.snapshot()

    @given(
        ops=st.lists(
            st.tuples(st.integers(min_value=1, max_value=3),
                      st.integers(min_value=0, max_value=40),
                      st.integers(min_value=1, max_value=50)),
            min_size=1, max_size=12,
        ),
        entries=st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=60, deadline=None)
    def test_att_sweep_range_matches_access_loop(self, ops, entries):
        config = ATTConfig(entries=entries, fetch_ns=250.0)
        fast_counters, ref_counters = CounterSet(), CounterSet()
        fast_att = ATTCache(config, fast_counters)
        ref_att = ATTCache(config, ref_counters)
        for mr, first, n in ops:
            got = fast_att.sweep_range(mr, first, n)
            hits = misses = 0
            for idx in range(first, first + n):
                hit, _ = ref_att.access(mr, idx)
                hits += hit
                misses += not hit
            assert got == (hits, misses)
            assert fast_att.keys() == ref_att.keys()
        assert fast_counters.snapshot() == ref_counters.snapshot()


# ---------------------------------------------------------------------------
# the access engine: touch / stream / copy on real page tables
# ---------------------------------------------------------------------------

def _paired_engines():
    """Two engines over one address space: small TLB/cache geometries so
    short hypothesis runs still evict, plus three VMAs (two 4 KB-backed,
    one hugepage-backed) to mix page sizes."""
    pm = PhysicalMemory(64 * MB, hugepages=8)
    aspace = AddressSpace(pm, HugeTLBfs(pm))
    vmas = [
        aspace.mmap(96 * KB),
        aspace.mmap(4 * MB, page_size=PAGE_2M),
        aspace.mmap(160 * KB),
    ]
    tlb_config = TLBConfig(entries_4k=16, entries_2m=2)
    cache_config = CacheConfig(capacity_bytes=16 * KB)
    clock = TickClock(206.25)
    engines = tuple(
        MemoryAccessEngine(aspace, tlb_config, cache_config, clock,
                           CounterSet())
        for _ in range(2)
    )
    return vmas, engines


access_ops = st.lists(
    st.tuples(
        st.sampled_from(["touch", "stream", "copy"]),
        st.integers(min_value=0, max_value=2),      # vma index
        st.integers(min_value=0, max_value=2**20),  # offset seed
        st.integers(min_value=1, max_value=2**20),  # length seed
        st.booleans(),                              # write
    ),
    min_size=1, max_size=10,
)


class TestAccessEngineEquivalence:
    @given(ops=access_ops)
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_touch_stream_copy_bit_identical(self, ops):
        vmas, (fast_engine, ref_engine) = _paired_engines()
        for kind, vma_idx, off_seed, len_seed, write in ops:
            vma = vmas[vma_idx]
            size = vma.end - vma.start
            offset = off_seed % size
            nbytes = 1 + len_seed % (size - offset)
            with fastpath.forced(True):
                fast_cost = self._apply(fast_engine, kind, vma.start,
                                        offset, nbytes, write)
            with fastpath.forced(False):
                ref_cost = self._apply(ref_engine, kind, vma.start,
                                       offset, nbytes, write)
            # full dataclass equality: ns, ticks and every event count
            assert fast_cost == ref_cost, (kind, offset, nbytes, write)
        assert fast_engine.counters.snapshot() == \
            ref_engine.counters.snapshot()
        for page_size in (PAGE_4K, PAGE_2M):
            assert fast_engine.tlb.keys(page_size) == \
                ref_engine.tlb.keys(page_size)
        assert fast_engine.cache.keys() == ref_engine.cache.keys()

    @staticmethod
    def _apply(engine, kind, base, offset, nbytes, write):
        if kind == "touch":
            return engine.touch(base + offset, nbytes, write)
        if kind == "stream":
            return engine.stream(base + offset, nbytes, write)
        # copy: read the front of the VMA, write the chosen range
        return engine.copy(base, base + offset, nbytes)


# ---------------------------------------------------------------------------
# registration: batched page costing, pin-count state
# ---------------------------------------------------------------------------

def _register_once(fast, page_size, size):
    from repro.ib.verbs import ProtectionDomain
    from repro.systems import Machine, presets

    with fastpath.forced(fast):
        machine = Machine(SimKernel(),
                          presets.opteron_infinihost_pcie(hugepages=256))
        proc = machine.new_process()
        pd = ProtectionDomain.fresh()
        vma = proc.aspace.mmap(size, page_size=page_size)
        mr, ns = machine.reg_engine.register(proc.aspace, pd, vma.start, size)
        pinned = [e.pin_count for e in
                  proc.aspace.page_table.pages_in_range(vma.start, size)]
        machine.reg_engine.deregister(proc.aspace, mr)
        unpinned = [e.pin_count for e in
                    proc.aspace.page_table.pages_in_range(vma.start, size)]
    return ns, pinned, unpinned


class TestRegistrationEquivalence:
    @pytest.mark.parametrize("page_size", [PAGE_4K, PAGE_2M])
    @pytest.mark.parametrize("size", [64 * KB, 1 * MB, 6 * MB])
    def test_cost_and_pin_state_identical(self, page_size, size):
        fast = _register_once(True, page_size, size)
        ref = _register_once(False, page_size, size)
        assert fast == ref
        ns, pinned, unpinned = fast
        assert ns > 0
        assert all(c == 1 for c in pinned)
        assert all(c == 0 for c in unpinned)


# ---------------------------------------------------------------------------
# end to end: the figure drivers, with and without faults
# ---------------------------------------------------------------------------

def _measure_send(fast, sges, sge_size, offset):
    from repro.workloads.verbs_micro import measure_send

    with fastpath.forced(fast):
        r = measure_send(sges=sges, sge_size=sge_size, offset=offset)
    return r.post_ticks, r.total_ticks


def _imb_rows(fast, fault_plan):
    from repro.systems import presets
    from repro.workloads.imb import SendRecvBenchmark

    with fastpath.forced(fast):
        bench = SendRecvBenchmark(presets.opteron_infinihost_pcie)
        try:
            result = bench.run([64 * KB, 1 * MB], hugepages=False,
                               lazy_dereg=True, iterations=2, warmup=1,
                               fault_plan=fault_plan)
        except Exception as exc:  # retry exhaustion is a legal outcome
            return ("aborted", type(exc).__name__, str(exc))
    return tuple((row.size, row.ticks_per_iter, row.latency_us,
                  row.bandwidth_mb_s) for row in result.rows)


class TestDriversEquivalence:
    @given(
        sges=st.integers(min_value=1, max_value=32),
        sge_size=st.integers(min_value=1, max_value=2048),
        offset=st.integers(min_value=0, max_value=128),
    )
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_verbs_micro_identical(self, sges, sge_size, offset):
        assert _measure_send(True, sges, sge_size, offset) == \
            _measure_send(False, sges, sge_size, offset)

    def test_imb_sendrecv_identical(self):
        assert _imb_rows(True, None) == _imb_rows(False, None)

    @given(seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=4, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_imb_identical_under_faults(self, seed):
        """Under an active FaultPlan the costing toggle must still be a
        no-op — same ticks either way, even when the run legally aborts
        on retry exhaustion."""
        from repro.faults import FaultPlan

        def plan():
            return FaultPlan(link_loss=0.05, link_corrupt=0.02,
                             reg_transient=0.1, seed=seed)

        assert _imb_rows(True, plan()) == _imb_rows(False, plan())


# ---------------------------------------------------------------------------
# satellite: link serialization guard + precomputed per-byte cost
# ---------------------------------------------------------------------------

class TestLinkSerialization:
    def test_ns_per_byte_precomputed_in_config(self):
        config = LinkConfig(payload_mb_s=800.0)
        assert config.ns_per_byte == 1e3 / 800.0
        # the default 940 MB/s link too
        assert LinkConfig().ns_per_byte == 1e3 / 940.0

    def test_negative_byte_count_rejected(self):
        link = LinkConfig()
        with pytest.raises(ValueError):
            link.serialization_ns(-1)
        with pytest.raises(ValueError):
            link.packets_for(-5)

    @given(nbytes=st.integers(min_value=0, max_value=64 * MB))
    @settings(max_examples=200, deadline=None)
    def test_serialization_formula_and_monotonicity(self, nbytes):
        link = LinkConfig()
        got = link.serialization_ns(nbytes)
        assert got == (link.packets_for(nbytes) * link.packet_ns
                       + nbytes * link.ns_per_byte)
        assert link.serialization_ns(nbytes + link.mtu_bytes) > got
