"""The sanitizer's snapshot trigger (``--audit`` and checkpoints): clean
on healthy runs, every seeded corruption class is detected with a
debuggable violation, and a rule both triggers check gets the same id
from the access hook and from the sweep."""

import heapq

import pytest

from repro import sanitize
from repro.core.library import preload_hugepage_library
from repro.faults import FaultPlan
from repro.ib.hca import HCA
from repro.ib.verbs import CompletionQueue, ProtectionDomain
from repro.mem.paging import PAGE_4K
from repro.sanitize import SanitizerError, check_snapshot, sweep_cluster
from repro.systems import Cluster, presets
from repro.workloads.imb import SendRecvBenchmark
from repro.workloads.nas import KERNELS
from repro.workloads.nas.common import run_nas

KB = 1024
MB = 1024 * 1024


def _rules(violations):
    return {v.rule for v in violations}


def _mr_cluster():
    """A 2-node cluster with one registered MR on node 0, quiesced."""
    cluster = Cluster(presets.opteron_infinihost_pcie(), 2)
    node = cluster.nodes[0]
    proc = node.new_process()
    buf = proc.aspace.mmap(MB).start
    mrs = {}

    def register():
        mrs["mr"] = yield from node.hca.register_memory(
            proc.aspace, ProtectionDomain.fresh(), buf, MB
        )

    cluster.kernel.process(register())
    cluster.kernel.run()
    return cluster, node, proc, buf, mrs["mr"]


def _tlb_cluster():
    """A 1-node cluster whose TLB caches a translation the page table no
    longer has, while the VMA is still live: a use-after-unmap window."""
    cluster = Cluster(presets.opteron_infinihost_pcie(), 1)
    proc = cluster.nodes[0].new_process()
    vma = proc.aspace.mmap(64 * KB)
    proc.engine.tlb.access(vma.start, PAGE_4K)
    proc.aspace.page_table.leaf_table(PAGE_4K).pop(vma.start)
    return cluster, proc, vma


class TestCleanOnHealthyRuns:
    def test_fig5_benchmark_audits_clean(self):
        bench = SendRecvBenchmark(presets.opteron_infinihost_pcie)
        bench.run([4 * KB, 64 * KB], hugepages=True, lazy_dereg=True,
                  iterations=2, warmup=1)
        assert sweep_cluster(bench.last_cluster) == []

    def test_nas_ep_audits_clean(self):
        sink = []
        run_nas(KERNELS["EP"], presets.opteron_infinihost_pcie(),
                hugepages=True, klass="W", ppn=2, nas_hugepage_pool=720,
                cluster_sink=sink)
        assert sweep_cluster(sink[0]) == []

    def test_faulted_run_audits_clean(self):
        bench = SendRecvBenchmark(presets.opteron_infinihost_pcie)
        bench.run([4 * KB], hugepages=False, lazy_dereg=True,
                  iterations=2, warmup=1,
                  fault_plan=FaultPlan(seed=7, link_loss=0.02))
        check_snapshot(bench.last_cluster)  # no raise

    def test_registered_mr_cluster_is_clean(self):
        cluster, *_ = _mr_cluster()
        assert sweep_cluster(cluster) == []


class TestSeededCorruptionIsDetected:
    def test_unpinned_mr_page(self):
        cluster, node, proc, buf, mr = _mr_cluster()
        entries = list(proc.aspace.page_table.pages_in_range(buf, MB))
        entries[3].pin_count = 0  # DMA target silently unpinned
        violations = sweep_cluster(cluster)
        assert "mr.unpinned-page" in _rules(violations)
        v = next(v for v in violations if v.rule == "mr.unpinned-page")
        assert "not pinned" in str(v)
        assert v.context["location"].endswith(f"MR{mr.mr_id}")
        assert v.address == entries[3].vaddr

    def test_stale_att_entry(self):
        cluster, node, proc, buf, mr = _mr_cluster()
        node.att.access(999999, 0)  # translation for a dead MR
        node.att.access(mr.mr_id, mr.n_entries + 5)  # out of range
        violations = sweep_cluster(cluster)
        assert [v.rule for v in violations] == ["att.stale-entry",
                                                "att.out-of-range"]
        stale, out_of_range = violations
        assert "unknown or deregistered MR 999999" in str(stale)
        assert "outside" in str(out_of_range)

    def test_dangling_tlb_entry(self):
        cluster, proc, vma = _tlb_cluster()
        violations = sweep_cluster(cluster)
        assert "tlb.dangling-entry" in _rules(violations)
        v = next(v for v in violations if v.rule == "tlb.dangling-entry")
        assert "no" in str(v) and "PTE" in str(v)

    def test_overlapping_free_blocks(self):
        from repro.alloc.freelist import FreeExtent

        cluster = Cluster(presets.opteron_infinihost_pcie(), 1)
        proc = cluster.nodes[0].new_process()
        preload_hugepage_library(proc)
        lib = proc.allocator
        addr = proc.malloc(max(lib.config.cutoff_bytes, 64 * KB))
        assert addr in lib.management._live  # chunk-managed, not libc
        fl = lib.management.freelist
        # a free extent over a live block, kept in address order
        fl._extents = sorted(fl._extents + [FreeExtent(start=addr, n_chunks=1)],
                             key=lambda e: e.start)
        fl._starts = [e.start for e in fl._extents]
        violations = sweep_cluster(cluster)
        assert "alloc.overlap" in _rules(violations)
        v = next(v for v in violations if v.rule == "alloc.overlap")
        assert "overlaps live block" in str(v)

    def test_libc_heap_overlap_and_linkage(self):
        cluster = Cluster(presets.opteron_infinihost_pcie(), 1)
        proc = cluster.nodes[0].new_process()
        proc.libc.malloc(4 * KB)
        proc.libc.malloc(4 * KB)
        blocks = sorted(proc.libc._blocks.values(), key=lambda b: b.addr)
        assert len(blocks) >= 2
        blocks[0].size = blocks[1].addr - blocks[0].addr + 64  # grows into neighbour
        assert "alloc.overlap" in _rules(sweep_cluster(cluster))

    def test_non_monotonic_event(self):
        cluster = Cluster(presets.opteron_infinihost_pcie(), 1)
        k = cluster.kernel

        def burn():
            yield k.timeout(100)

        k.process(burn())
        k.run()
        heapq.heappush(k._queue, (k.now - 10, 1, 1, k.event()))
        violations = sweep_cluster(cluster)
        assert "engine.event-heap" in _rules(violations)
        assert any("scheduled in the past" in str(v) for v in violations)
        with pytest.raises(SanitizerError, match="event-heap"):
            check_snapshot(cluster)
        k._queue.clear()

    def test_qp_slot_leak(self):
        cluster = Cluster(presets.opteron_infinihost_pcie(), 2)
        a, b = cluster.nodes
        cq = {n: CompletionQueue(cluster.kernel) for n in range(4)}
        qa = a.hca.create_qp(ProtectionDomain.fresh(), cq[0], cq[1])
        qb = b.hca.create_qp(ProtectionDomain.fresh(), cq[2], cq[3])
        HCA.connect_pair(qa, a.hca, qb, b.hca)
        cluster.kernel.run()
        qa.wr_slots._in_use = qa.max_send_wr + 1
        violations = sweep_cluster(cluster)
        assert "qp.balance" in _rules(violations)
        assert any("exceeds queue depth" in str(v) for v in violations)


def _plant_unpinned_page(san):
    with sanitize.capturing(san):
        cluster, node, proc, buf, mr = _mr_cluster()
    list(proc.aspace.page_table.pages_in_range(buf, MB))[3].pin_count = 0
    return cluster, lambda: san.check_dma(mr, buf, MB, "post_send")


def _plant_stale_att_entry(san):
    with sanitize.capturing(san):
        cluster, node, proc, buf, mr = _mr_cluster()
        node.reg_engine.deregister(proc.aspace, mr)
    node.att.access(mr.mr_id, 0)  # cached with the hook off
    return cluster, lambda: node.att.access(mr.mr_id, 0)


def _plant_dangling_tlb_entry(san):
    cluster, proc, vma = _tlb_cluster()
    return cluster, lambda: proc.engine.touch(vma.start, 64)


class TestBothTriggersAgree:
    """A rule both triggers check is one predicate: the same planted
    corruption gets the same rule id at the faulting access and in the
    snapshot sweep, and the snapshot's tick is the cluster's clock."""

    @pytest.mark.parametrize("plant", [
        _plant_unpinned_page, _plant_stale_att_entry,
        _plant_dangling_tlb_entry,
    ], ids=["unpinned-page", "stale-att-entry", "dangling-tlb-entry"])
    def test_hook_and_sweep_raise_the_same_rule(self, plant):
        san = sanitize.Sanitizer()
        cluster, hook = plant(san)
        with pytest.raises(SanitizerError) as snap:
            check_snapshot(cluster)
        assert _rules(sweep_cluster(cluster)) == {snap.value.rule}
        assert snap.value.tick == cluster.kernel.now
        with sanitize.capturing(san), pytest.raises(SanitizerError) as hit:
            hook()
        assert hit.value.rule == snap.value.rule
        assert hit.value.args == snap.value.args  # one message text
        assert hit.value.key == snap.value.key


class TestRendering:
    def test_violation_renders_with_context(self):
        cluster, node, proc, buf, mr = _mr_cluster()
        list(proc.aspace.page_table.pages_in_range(buf, MB))[3].pin_count = 0
        (v,) = sweep_cluster(cluster, label="demo")
        text = str(v)
        assert text.startswith("sanitize[mr.unpinned-page]: page ")
        assert f"location=demo/{node.name}/MR{mr.mr_id}" in text
        assert f"key={mr.mr_id:#x}" in text
        assert "\n" not in text

    def test_snapshot_violation_raises_first_as_one_line(self):
        cluster = Cluster(presets.opteron_infinihost_pcie(), 1)
        k = cluster.kernel
        k._now = 100
        heapq.heappush(k._queue, (50, 1, 0, k.event()))
        heapq.heappush(k._queue, (60, 1, 1, k.event()))
        assert len(sweep_cluster(cluster)) > 1  # only the first is raised
        with pytest.raises(SanitizerError) as exc:
            check_snapshot(cluster, label="demo")
        text = str(exc.value)
        assert text.startswith("sanitize[engine.event-heap]: event scheduled "
                               "in the past (t=50 < now=100)")
        assert "location=demo/kernel" in text and "tick=100" in text
        assert "\n" not in text
        k._queue.clear()
