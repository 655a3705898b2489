"""SimSan, the shadow-state sanitizer: zero-cost when off, clean on
healthy runs, and every seeded corruption class is caught *at the
faulting operation* with the exact rule id and faulting address/key."""

import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import sanitize
from repro.analysis.counters import CounterSet
from repro.engine import SimKernel
from repro.ib.verbs import ProtectionDomain
from repro.mem.paging import PAGE_4K, PageRun
from repro.systems import Cluster, Machine, presets
from repro.workloads.imb import SendRecvBenchmark
from repro.workloads.nas import KERNELS
from repro.workloads.nas.common import run_nas

KB = 1024
MB = 1024 * 1024


def make_machine(hugepages=64):
    machine = Machine(SimKernel(), presets.opteron_infinihost_pcie(
        hugepages=hugepages))
    return machine, machine.new_process()


def _mr_machine(length=MB):
    """A machine with one registered MR (mirrors test_audit's helper)."""
    machine, proc = make_machine()
    buf = proc.aspace.mmap(length).start
    mr, _ns = machine.reg_engine.register(
        proc.aspace, ProtectionDomain.fresh(), buf, length)
    return machine, proc, buf, mr


class TestShadowLifetime:
    """The sanitizer's shadows go with the address space they shadow,
    so a sanitized command does not keep every dropped process's
    memory, and its node's physical pool, alive until it ends."""

    def test_dropped_machine_frees_its_address_space(self):
        san = sanitize.Sanitizer()
        with sanitize.capturing(san):
            machine, proc, buf, mr = _mr_machine()
            san.check_dma(mr, buf, MB, "post_send")
            proc.free(proc.malloc(64 * KB))
            space = weakref.ref(proc.aspace)
            pool = weakref.ref(machine.physical)
            del machine, proc, mr
            gc.collect()
            assert space() is None
            assert pool() is None
            # the sanitizer carries on with the next machine
            machine, proc = make_machine()
            proc.free(proc.malloc(64 * KB))
        assert san.checks["heap"] == 4
        assert san.checks["mr"] >= 2


class TestRuleParsing:
    def test_all_aliases(self):
        for spec in (None, "", "1", "true", "yes", "on", "all"):
            assert sanitize.parse_rules(spec) == sanitize.RULE_GROUPS

    def test_subset(self):
        assert sanitize.parse_rules("heap,mr") == ("heap", "mr")
        assert sanitize.parse_rules(" tlb , counter ") == ("tlb", "counter")

    def test_unknown_group_rejected(self):
        with pytest.raises(ValueError, match="unknown sanitizer group"):
            sanitize.parse_rules("heap,bogus")

    def test_sanitizer_rejects_unknown_group(self):
        with pytest.raises(ValueError):
            sanitize.Sanitizer(groups=("nope",))


class TestZeroCostOff:
    def test_inactive_by_default(self):
        assert sanitize.active() is None
        assert sanitize._active is None

    def test_capturing_installs_and_uninstalls(self):
        san = sanitize.Sanitizer()
        with sanitize.capturing(san) as got:
            assert got is san
            assert sanitize.active() is san
        assert sanitize.active() is None

    def test_uninstalled_run_records_no_checks(self):
        machine, proc = make_machine()
        addr = proc.libc.malloc(4 * KB)
        proc.engine.touch(addr, 4 * KB)
        proc.libc.free(addr)
        san = sanitize.Sanitizer()
        assert san.checks == {"heap": 0, "mr": 0, "tlb": 0, "counter": 0}


class TestCleanRuns:
    def test_malloc_touch_free_is_clean(self):
        san = sanitize.Sanitizer()
        with sanitize.capturing(san):
            machine, proc = make_machine()
            addr = proc.libc.malloc(64 * KB)
            proc.engine.touch(addr, 64 * KB)
            proc.engine.stream(addr, 64 * KB)
            proc.libc.free(addr)
        assert san.checks["heap"] > 0
        assert "clean" in san.report()

    def test_fig5_small_sweep_is_clean(self):
        san = sanitize.Sanitizer()
        with sanitize.capturing(san):
            bench = SendRecvBenchmark(presets.opteron_infinihost_pcie)
            bench.run([4 * KB, 64 * KB], hugepages=True, lazy_dereg=True,
                      iterations=2, warmup=1)
        assert san.checks["mr"] > 0

    def test_register_use_deregister_is_clean(self):
        san = sanitize.Sanitizer()
        with sanitize.capturing(san):
            machine, proc, buf, mr = _mr_machine()
            machine.att.access(mr.mr_id, 0)
            machine.reg_engine.deregister(proc.aspace, mr)
        assert san.checks["mr"] >= 3


class TestHeapRules:
    def test_use_after_free_at_faulting_access(self):
        san = sanitize.Sanitizer()
        with sanitize.capturing(san):
            machine, proc = make_machine()
            addr = proc.libc.malloc(4 * KB)
            proc.libc.free(addr)
            with pytest.raises(sanitize.SanitizerError) as exc:
                proc.engine.touch(addr, 64)
        assert exc.value.rule == "heap.use-after-free"
        assert exc.value.address == addr
        assert exc.value.context["op"] == "touch"

    def test_double_free(self):
        san = sanitize.Sanitizer()
        with sanitize.capturing(san):
            machine, proc = make_machine()
            addr = proc.libc.malloc(4 * KB)
            proc.libc.free(addr)
            with pytest.raises(sanitize.SanitizerError) as exc:
                proc.libc.free(addr)
        assert exc.value.rule == "heap.double-free"
        assert exc.value.address == addr

    def test_out_of_bounds_reports_first_bad_byte(self):
        san = sanitize.Sanitizer()
        with sanitize.capturing(san):
            machine, proc = make_machine()
            addr = proc.libc.malloc(4 * KB)
            with pytest.raises(sanitize.SanitizerError) as exc:
                proc.engine.touch(addr, 4 * KB + 512)
        assert exc.value.rule == "heap.out-of-bounds"
        assert exc.value.address == addr + 4 * KB  # first byte past the block

    def test_redzone_touch(self):
        san = sanitize.Sanitizer()
        with sanitize.capturing(san):
            machine, proc = make_machine()
            addr = proc.libc.malloc(4 * KB)
            with pytest.raises(sanitize.SanitizerError) as exc:
                proc.engine.touch(addr + 4 * KB, 8)
        assert exc.value.rule == "heap.redzone-touch"
        assert exc.value.address == addr + 4 * KB

    def test_allocator_overlap(self):
        """A corrupt allocator handing out overlapping live blocks."""
        machine, proc = make_machine()

        class FakeAllocator:
            aspace = proc.aspace

            def __repr__(self):
                return "fake"

        san = sanitize.Sanitizer()
        fake = FakeAllocator()
        with sanitize.capturing(san):
            san.on_malloc(fake, 0x100000, 4 * KB)
            with pytest.raises(sanitize.SanitizerError) as exc:
                san.on_malloc(fake, 0x100800, 4 * KB)
        assert exc.value.rule == "heap.overlap"

    def test_hugepage_lib_free_reuse_is_clean(self):
        """The library's free keeps the mapping and reuses the range —
        legal, and the shadow must not flag the reuse as UAF."""
        from repro.core.library import preload_hugepage_library

        san = sanitize.Sanitizer()
        with sanitize.capturing(san):
            machine, proc = make_machine(hugepages=128)
            preload_hugepage_library(proc)
            for _ in range(3):
                addr = proc.malloc(1 * MB)
                proc.engine.touch(addr, 1 * MB)
                proc.free(addr)
        assert san.checks["heap"] >= 3


class TestMRRules:
    def test_lookup_of_deregistered_lkey(self):
        san = sanitize.Sanitizer()
        with sanitize.capturing(san):
            machine, proc, buf, mr = _mr_machine()
            machine.reg_engine.deregister(proc.aspace, mr)
            with pytest.raises(sanitize.SanitizerError) as exc:
                machine.hca.lookup_mr(mr.lkey)
        assert exc.value.rule == "mr.use-after-dereg"
        assert exc.value.key == mr.lkey

    def test_rkey_use_after_dereg_at_rx(self):
        san = sanitize.Sanitizer()
        with sanitize.capturing(san):
            machine, proc, buf, mr = _mr_machine()
            machine.reg_engine.deregister(proc.aspace, mr)
            with pytest.raises(sanitize.SanitizerError) as exc:
                san.check_rkey(None, mr.rkey, buf, 4 * KB, "rdma_write.rx")
        assert exc.value.rule == "mr.use-after-dereg"
        assert exc.value.key == mr.rkey

    def test_duplicate_registration(self):
        san = sanitize.Sanitizer()
        with sanitize.capturing(san):
            machine, proc, buf, mr = _mr_machine()
            with pytest.raises(sanitize.SanitizerError) as exc:
                machine.reg_engine.register(
                    proc.aspace, ProtectionDomain.fresh(), buf, MB)
        assert exc.value.rule == "mr.duplicate-registration"
        assert exc.value.address == buf
        assert exc.value.context["duplicate_of"] == mr.mr_id

    def test_dma_over_unpinned_page(self):
        san = sanitize.Sanitizer()
        with sanitize.capturing(san):
            machine, proc, buf, mr = _mr_machine()
            entries = list(proc.aspace.page_table.pages_in_range(buf, MB))
            entries[3].pin_count = 0  # silently unpinned under the MR
            with pytest.raises(sanitize.SanitizerError) as exc:
                san.check_dma(mr, buf, MB, "post_send")
        assert exc.value.rule == "mr.unpinned-page"
        assert exc.value.address == entries[3].vaddr

    def test_att_stale_entry(self):
        san = sanitize.Sanitizer()
        with sanitize.capturing(san):
            machine, proc, buf, mr = _mr_machine()
            machine.reg_engine.deregister(proc.aspace, mr)
            with pytest.raises(sanitize.SanitizerError) as exc:
                machine.att.access(mr.mr_id, 0)
        assert exc.value.rule == "att.stale-entry"

    def test_att_out_of_range(self):
        san = sanitize.Sanitizer()
        with sanitize.capturing(san):
            machine, proc, buf, mr = _mr_machine()
            with pytest.raises(sanitize.SanitizerError) as exc:
                machine.att.access(mr.mr_id, mr.n_entries + 5)
        assert exc.value.rule == "att.out-of-range"


class TestTLBRules:
    def test_unmapped_range(self):
        san = sanitize.Sanitizer()
        with sanitize.capturing(san):
            machine, proc = make_machine()
            vma = proc.aspace.mmap(16 * PAGE_4K)
            proc.aspace.munmap(vma.start)
            with pytest.raises(sanitize.SanitizerError) as exc:
                proc.engine.touch(vma.start, PAGE_4K)
        assert exc.value.rule == "tlb.unmapped-range"
        assert exc.value.address == vma.start

    def test_dangling_tlb_entry(self):
        san = sanitize.Sanitizer()
        with sanitize.capturing(san):
            machine, proc = make_machine()
            vma = proc.aspace.mmap(64 * KB)
            proc.engine.tlb.access(vma.start, PAGE_4K)
            proc.aspace.page_table.leaf_table(PAGE_4K).pop(vma.start)
            with pytest.raises(sanitize.SanitizerError) as exc:
                proc.engine.touch(vma.start, 64)
        assert exc.value.rule == "tlb.dangling-entry"
        assert exc.value.address == vma.start

    def test_unbacked_frame(self):
        san = sanitize.Sanitizer()
        with sanitize.capturing(san):
            machine, proc = make_machine()
            vma = proc.aspace.mmap(64 * KB)
            entry = proc.aspace.page_table.leaf_table(PAGE_4K)[vma.start]
            entry.paddr = proc.aspace.physical.total_bytes + PAGE_4K
            with pytest.raises(sanitize.SanitizerError) as exc:
                proc.engine.touch(vma.start, 64)
        assert exc.value.rule == "tlb.unbacked-frame"
        assert exc.value.address == vma.start

    def test_stale_cached_translation(self, monkeypatch):
        san = sanitize.Sanitizer()
        with sanitize.capturing(san):
            machine, proc = make_machine()
            vma = proc.aspace.mmap(64 * KB)
            run, first, last = proc.aspace.translation_run(vma.start, 64 * KB)
            # a copy of the run taken before a CoW write fault moves the
            # first page's frame: exactly the desync a fast path reading
            # a stale copy would cost against
            stale = PageRun(run.start, run.page_size, run.paddr.copy())
            proc.aspace.fork()
            assert proc.aspace.write_fault(vma.start)
            monkeypatch.setattr(proc.aspace, "translation_run",
                                lambda vaddr, nbytes: (stale, first, last))
            with pytest.raises(sanitize.SanitizerError) as exc:
                proc.engine.touch(vma.start, 64 * KB)
        assert exc.value.rule == "tlb.stale-translation"
        assert exc.value.address == vma.start


class TestSweepOnlyRules:
    """Rules only the snapshot sweep checks, each fired on a planted state."""

    def test_live_mr_over_a_dropped_mapping(self):
        cluster = Cluster(presets.opteron_infinihost_pcie(), 1)
        machine = cluster.nodes[0]
        proc = machine.new_process()
        buf = proc.aspace.mmap(MB).start
        mrs = []

        def register():
            mrs.append((yield from machine.hca.register_memory(
                proc.aspace, ProtectionDomain.fresh(), buf, MB)))

        cluster.kernel.process(register())
        cluster.kernel.run()
        (mr,) = mrs
        page = buf + 3 * PAGE_4K
        proc.aspace.page_table.leaf_table(PAGE_4K).pop(page)
        (v,) = [v for v in sanitize.sweep_cluster(cluster)
                if v.rule == "mr.unmapped-frame"]
        assert (v.address, v.key) == (page, mr.mr_id)

    def test_cache_line_past_physical_memory(self):
        cluster = Cluster(presets.opteron_infinihost_pcie(), 1)
        machine = cluster.nodes[0]
        proc = machine.new_process()
        proc.engine.cache.access(machine.physical.total_bytes + 64)
        assert [v.rule for v in sanitize.sweep_cluster(cluster)] == [
            "cache.unbacked-line"]


class TestCounterRules:
    def test_float_amount(self):
        san = sanitize.Sanitizer()
        with sanitize.capturing(san):
            counters = CounterSet()
            counters.add("tlb.4k.miss", 2)  # int is fine
            with pytest.raises(sanitize.SanitizerError) as exc:
                counters.add("tlb.4k.miss", 1.5)
        assert exc.value.rule == "counter.float-amount"
        assert exc.value.context["counter"] == "tlb.4k.miss"

    def test_float_amount_in_add_many(self):
        san = sanitize.Sanitizer()
        with sanitize.capturing(san):
            counters = CounterSet()
            with pytest.raises(sanitize.SanitizerError) as exc:
                counters.add_many([("a", 1), ("b", 0.25)])
        assert exc.value.rule == "counter.float-amount"

    def test_bool_amount_is_int(self):
        san = sanitize.Sanitizer()
        with sanitize.capturing(san):
            CounterSet().add("x", True)  # bool is an int subclass: legal


class TestGroupSelection:
    def test_disabled_group_does_not_fire(self):
        san = sanitize.Sanitizer(groups=("mr",))
        with sanitize.capturing(san):
            machine, proc = make_machine()
            addr = proc.libc.malloc(4 * KB)
            proc.libc.free(addr)
            proc.engine.touch(addr, 64)  # UAF, but heap group is off
        assert san.checks["heap"] == 0

    def test_aliased_sendrecv_found_only_with_mr_group(self):
        """The defect class SimSan actually found in this tree: aliased
        MPI_Sendrecv buffers (erroneous per the MPI standard) register
        the same range twice when the regcache is off."""
        from repro.mpi.api import MPIConfig, MPIWorld

        def run():
            cluster = Cluster(presets.opteron_infinihost_pcie(), 2)
            world = MPIWorld(cluster, ppn=1,
                             config=MPIConfig(lazy_dereg=False))

            def program(comm):
                other = 1 - comm.rank
                buf = comm.proc.malloc(MB)
                yield from comm.sendrecv(other, 7, 256 * KB, source=other,
                                         recvtag=7, send_addr=buf,
                                         recv_addr=buf)  # aliased: illegal
                return None

            world.run(program)

        with sanitize.capturing(sanitize.Sanitizer(groups=("mr",))):
            with pytest.raises(sanitize.SanitizerError) as exc:
                run()
        assert exc.value.rule == "mr.duplicate-registration"


class TestErrorShape:
    def test_str_includes_rule_address_and_context(self):
        err = sanitize.SanitizerError(
            "heap.use-after-free", "8-byte touch inside freed block",
            address=0x1000, key=None, tick=42, context={"op": "touch"})
        text = str(err)
        assert text.startswith("sanitize[heap.use-after-free]:")
        assert "address=0x1000" in text
        assert "tick=42" in text
        assert "op=touch" in text

    def test_violation_emits_trace_instant(self):
        from repro import trace

        tracer = trace.Tracer()
        san = sanitize.Sanitizer()
        with trace.capturing(tracer), sanitize.capturing(san):
            machine, proc = make_machine()
            addr = proc.libc.malloc(4 * KB)
            proc.libc.free(addr)
            with pytest.raises(sanitize.SanitizerError):
                proc.engine.touch(addr, 64)
        events = [e for e in tracer.events
                  if e.get("name") == "sanitize.violation"]
        assert len(events) == 1
        assert events[0]["args"]["rule"] == "heap.use-after-free"


def _fig5_payload(sizes, hugepages, sanitized):
    bench = SendRecvBenchmark(presets.opteron_infinihost_pcie)
    if sanitized:
        with sanitize.capturing(sanitize.Sanitizer()):
            res = bench.run(sizes, hugepages=hugepages, lazy_dereg=True,
                            iterations=2, warmup=1)
    else:
        res = bench.run(sizes, hugepages=hugepages, lazy_dereg=True,
                        iterations=2, warmup=1)
    return [(r.size, r.ticks_per_iter, r.latency_us, r.bandwidth_mb_s)
            for r in res.rows]


class TestByteIdentity:
    """The sanitizer observes; it must never perturb a run."""

    @settings(deadline=None, max_examples=6)
    @given(size_kb=st.sampled_from([4, 64, 256]), hugepages=st.booleans())
    def test_fig5_rows_identical(self, size_kb, hugepages):
        sizes = [size_kb * KB]
        assert _fig5_payload(sizes, hugepages, sanitized=False) == \
            _fig5_payload(sizes, hugepages, sanitized=True)

    @settings(deadline=None, max_examples=2)
    @given(hugepages=st.booleans())
    def test_nas_ep_identical(self, hugepages):
        def run(sanitized):
            if sanitized:
                with sanitize.capturing(sanitize.Sanitizer()):
                    return run_nas(KERNELS["EP"],
                                   presets.opteron_infinihost_pcie(),
                                   hugepages=hugepages, klass="W", ppn=2,
                                   nas_hugepage_pool=720)
            return run_nas(KERNELS["EP"], presets.opteron_infinihost_pcie(),
                           hugepages=hugepages, klass="W", ppn=2,
                           nas_hugepage_pool=720)

        assert run(False) == run(True)
