"""Tests for QP send-queue depth limits."""

from repro.ib.hca import HCA
from repro.ib.verbs import SGE, CompletionQueue, ProtectionDomain, RecvWR, SendWR
from repro.systems import Cluster, presets

MB = 1024 * 1024


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

        qa = a.hca.create_qp(pd_a, sa, ra, max_send_wr=1)
        qb = b.hca.create_qp(pd_b, sb, rb)
        HCA.connect_pair(qa, a.hca, qb, b.hca)
        times = {}
        posted = []

        def sender():
            mr = yield from a.hca.register_memory(pa.aspace, pd_a, buf_a, MB)
            t0 = k.now
            for i in range(3):
                yield from a.hca.post_send(
                    qa, SendWR(wr_id=i, sges=[SGE(buf_a, 64, mr.lkey)])
                )
                posted.append(k.now)
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
        # each post's return tick, pinned: the first post costs 226
        # ticks from t0 = 19,990; the second and third wait for a slot
        assert posted == [20216, 21030, 21798]
        assert times["posted_all"] == 1808

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
