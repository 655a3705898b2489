"""Tests for the FT extension kernel and QP send-queue depth limits."""

from repro.ib.hca import HCA
from repro.ib.verbs import SGE, CompletionQueue, ProtectionDomain, RecvWR, SendWR
from repro.systems import Cluster, presets
from repro.workloads.nas import EXTENSION_KERNELS, KERNELS, ft
from repro.workloads.nas.common import compare_hugepages, run_nas

MB = 1024 * 1024


class TestFTKernel:
    def test_registered_as_extension_not_fig6(self):
        assert "FT" in EXTENSION_KERNELS
        assert "FT" not in KERNELS

    def test_fft_roundtrip_verified(self):
        r = run_nas(ft.program, presets.opteron_infinihost_pcie(),
                    hugepages=False, klass="W")
        assert r.verified
        assert r.comm_ticks > 0

    def test_verified_under_hugepages_too(self):
        c = compare_hugepages(ft.program, presets.opteron_infinihost_pcie(),
                              klass="W")
        assert c.small.verified and c.huge.verified

    def test_mixed_hugepage_profile(self):
        """FT pulls both ways: streams help, the pow2 transpose hurts —
        the TLB ratio sits near 1 and the overall effect is small."""
        c = compare_hugepages(ft.program, presets.opteron_infinihost_pcie(),
                              klass="W")
        assert 0.3 < c.tlb_miss_ratio < 3.0
        assert -5.0 < c.overall_improvement_pct < 10.0


class TestQPSendQueueDepth:
    def test_post_blocks_when_queue_full(self):
        """With depth 1 and no receiver, a second post must wait until
        the engine drains the first WR."""
        cluster = Cluster(presets.systemp_ehca(), 2)
        k = cluster.kernel
        a, b = cluster.nodes
        pa, pb = a.new_process(), b.new_process()
        buf_a = pa.aspace.mmap(MB).start
        buf_b = pb.aspace.mmap(MB).start
        pd_a, pd_b = ProtectionDomain.fresh(), ProtectionDomain.fresh()
        sa, ra, sb, rb = (CompletionQueue(k) for _ in range(4))

        from repro.ib.verbs import QueuePair

        qa = QueuePair(k, pd_a, sa, ra, max_send_wr=1)
        a.hca._qps[qa.qp_num] = qa
        k.process(a.hca._send_loop(qa), name="sq-test")
        qb = b.hca.create_qp(pd_b, sb, rb)
        HCA.connect_pair(qa, a.hca, qb, b.hca)
        times = {}

        def sender():
            mr = yield from a.hca.register_memory(pa.aspace, pd_a, buf_a, MB)
            t0 = k.now
            for i in range(3):
                yield from a.hca.post_send(
                    qa, SendWR(wr_id=i, sges=[SGE(buf_a, 64, mr.lkey)])
                )
            times["posted_all"] = k.now - t0

        def receiver():
            mr = yield from b.hca.register_memory(pb.aspace, pd_b, buf_b, MB)
            for i in range(3):
                yield from b.hca.post_recv(
                    qb, RecvWR(wr_id=10 + i, sges=[SGE(buf_b, 4096, mr.lkey)])
                )
                yield from b.hca.wait_completion(rb)

        k.process(sender())
        k.process(receiver())
        k.run()
        # with depth 1 each post waits for the previous completion:
        # posting takes far longer than 3x the CPU post cost
        assert times["posted_all"] > 3 * 600

    def test_default_depth_does_not_block_modest_bursts(self):
        cluster = Cluster(presets.systemp_ehca(), 2)
        k = cluster.kernel
        a, b = cluster.nodes
        pa, pb = a.new_process(), b.new_process()
        buf_a = pa.aspace.mmap(MB).start
        buf_b = pb.aspace.mmap(MB).start
        pd_a, pd_b = ProtectionDomain.fresh(), ProtectionDomain.fresh()
        sa, ra, sb, rb = (CompletionQueue(k) for _ in range(4))
        qa = a.hca.create_qp(pd_a, sa, ra)
        qb = b.hca.create_qp(pd_b, sb, rb)
        HCA.connect_pair(qa, a.hca, qb, b.hca)
        out = {}

        def sender():
            mr = yield from a.hca.register_memory(pa.aspace, pd_a, buf_a, MB)
            t0 = k.now
            for i in range(10):
                yield from a.hca.post_send(
                    qa, SendWR(wr_id=i, sges=[SGE(buf_a, 64, mr.lkey)])
                )
            out["post_time"] = k.now - t0

        def receiver():
            mr = yield from b.hca.register_memory(pb.aspace, pd_b, buf_b, MB)
            for i in range(10):
                yield from b.hca.post_recv(
                    qb, RecvWR(wr_id=10 + i, sges=[SGE(buf_b, 4096, mr.lkey)])
                )
                yield from b.hca.wait_completion(rb)

        k.process(sender())
        k.process(receiver())
        k.run()
        # 10 posts at ~250 ticks each: no queue-full stalls
        assert out["post_time"] < 10 * 400
