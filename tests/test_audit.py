"""Cross-layer invariant auditor: clean on healthy runs, and every
seeded corruption class is detected with a debuggable violation."""

import heapq

import pytest

from repro.audit import (
    AuditError,
    Violation,
    assert_clean,
    audit_cluster,
    audit_kernel,
    render,
)
from repro.core.library import preload_hugepage_library
from repro.faults import FaultPlan
from repro.ib.hca import HCA
from repro.ib.verbs import CompletionQueue, ProtectionDomain
from repro.mem.paging import PAGE_4K
from repro.systems import Cluster, presets
from repro.workloads.imb import SendRecvBenchmark
from repro.workloads.nas import KERNELS
from repro.workloads.nas.common import run_nas

KB = 1024
MB = 1024 * 1024


def _checks(violations):
    return {v.check for v in violations}


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


class TestCleanOnHealthyRuns:
    def test_fig5_benchmark_audits_clean(self):
        bench = SendRecvBenchmark(presets.opteron_infinihost_pcie)
        bench.run([4 * KB, 64 * KB], hugepages=True, lazy_dereg=True,
                  iterations=2, warmup=1)
        assert audit_cluster(bench.last_cluster) == []

    def test_nas_ep_audits_clean(self):
        sink = []
        run_nas(KERNELS["EP"], presets.opteron_infinihost_pcie(),
                hugepages=True, klass="W", ppn=2, nas_hugepage_pool=720,
                cluster_sink=sink)
        assert audit_cluster(sink[0]) == []

    def test_faulted_run_audits_clean(self):
        bench = SendRecvBenchmark(presets.opteron_infinihost_pcie)
        bench.run([4 * KB], hugepages=False, lazy_dereg=True,
                  iterations=2, warmup=1,
                  fault_plan=FaultPlan(seed=7, link_loss=0.02))
        assert_clean(bench.last_cluster)  # no raise

    def test_registered_mr_cluster_is_clean(self):
        cluster, *_ = _mr_cluster()
        assert audit_cluster(cluster) == []


class TestSeededCorruptionIsDetected:
    def test_unpinned_mr_page(self):
        cluster, node, proc, buf, mr = _mr_cluster()
        entries = list(proc.aspace.page_table.pages_in_range(buf, MB))
        entries[3].pin_count = 0  # DMA target silently unpinned
        violations = audit_cluster(cluster)
        assert "mr-pinning" in _checks(violations)
        v = next(v for v in violations if v.check == "mr-pinning")
        assert "not pinned" in v.message
        assert f"MR{mr.mr_id}" in v.location

    def test_stale_att_entry(self):
        cluster, node, proc, buf, mr = _mr_cluster()
        node.att.access(999999, 0)  # translation for a dead MR
        node.att.access(mr.mr_id, mr.n_entries + 5)  # out of range
        violations = audit_cluster(cluster)
        stale = [v for v in violations if v.check == "att-stale"]
        assert len(stale) == 2
        assert any("unknown or deregistered MR 999999" in v.message for v in stale)
        assert any("outside" in v.message for v in stale)

    def test_dangling_tlb_entry(self):
        cluster = Cluster(presets.opteron_infinihost_pcie(), 1)
        proc = cluster.nodes[0].new_process()
        vma = proc.aspace.mmap(64 * KB)
        # the TLB caches a translation the page table no longer has,
        # while the VMA is still live — a real use-after-unmap window
        proc.engine.tlb.access(vma.start, PAGE_4K)
        proc.aspace.page_table.leaf_table(PAGE_4K).pop(vma.start)
        violations = audit_cluster(cluster)
        assert "tlb-dangling" in _checks(violations)
        v = next(v for v in violations if v.check == "tlb-dangling")
        assert "no" in v.message and "PTE" in v.message

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
        violations = audit_cluster(cluster)
        assert "alloc-overlap" in _checks(violations)
        v = next(v for v in violations if v.check == "alloc-overlap")
        assert "overlaps live block" in v.message

    def test_libc_heap_overlap_and_linkage(self):
        cluster = Cluster(presets.opteron_infinihost_pcie(), 1)
        proc = cluster.nodes[0].new_process()
        proc.libc.malloc(4 * KB)
        proc.libc.malloc(4 * KB)
        blocks = sorted(proc.libc._blocks.values(), key=lambda b: b.addr)
        assert len(blocks) >= 2
        blocks[0].size = blocks[1].addr - blocks[0].addr + 64  # grows into neighbour
        checks = _checks(audit_cluster(cluster))
        assert "alloc-overlap" in checks

    def test_non_monotonic_event(self):
        cluster = Cluster(presets.opteron_infinihost_pcie(), 1)
        k = cluster.kernel

        def burn():
            yield k.timeout(100)

        k.process(burn())
        k.run()
        heapq.heappush(k._queue, (k.now - 10, 1, 1, k.event()))
        violations = audit_kernel(k)
        assert "event-heap" in _checks(violations)
        assert any("scheduled in the past" in v.message for v in violations)
        with pytest.raises(AuditError, match="event-heap"):
            assert_clean(cluster)
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
        violations = audit_cluster(cluster)
        assert "qp-balance" in _checks(violations)
        assert any("exceeds queue depth" in v.message for v in violations)


class TestRendering:
    def test_violation_renders_with_context(self):
        v = Violation(check="mr-pinning", location="node0/MR7",
                      message="page 0x1000 not pinned",
                      context={"lkey": "0x2000", "length": 4096})
        text = str(v)
        assert text.startswith("[mr-pinning] node0/MR7: page 0x1000 not pinned")
        assert "length=4096" in text and "lkey='0x2000'" in text
        assert render([v, v]).count("\n") == 1

    def test_audit_error_message_lists_violations(self):
        v = Violation(check="event-heap", location="k", message="bad")
        err = AuditError([v], label="demo")
        assert "audit of demo found 1 violation(s)" in str(err)
        assert "[event-heap]" in str(err)
