"""Integration tests for the HCA pipeline (verbs level, two nodes)."""

import pytest

from repro import fastpath
from repro.ib.hca import HCA
from repro.ib.verbs import (
    SGE,
    CompletionQueue,
    IBVerbsError,
    ProtectionDomain,
    RecvWR,
    SendWR,
)
from repro.systems import Cluster, presets

MB = 1024 * 1024


def make_pair(spec=None):
    """Two connected nodes with one QP pair and registered 1 MB buffers."""
    cluster = Cluster(spec if spec is not None else presets.systemp_ehca(), 2)
    k = cluster.kernel
    a, b = cluster.nodes
    pa, pb = a.new_process(), b.new_process()
    buf_a = pa.aspace.mmap(MB).start
    buf_b = pb.aspace.mmap(MB).start
    pd_a, pd_b = ProtectionDomain.fresh(), ProtectionDomain.fresh()
    cqs = {name: CompletionQueue(k) for name in ("sa", "ra", "sb", "rb")}
    qa = a.hca.create_qp(pd_a, cqs["sa"], cqs["ra"])
    qb = b.hca.create_qp(pd_b, cqs["sb"], cqs["rb"])
    HCA.connect_pair(qa, a.hca, qb, b.hca)
    return cluster, (a, pa, buf_a, pd_a, qa), (b, pb, buf_b, pd_b, qb), cqs


class TestSendRecv:
    def test_payload_delivery_and_completions(self):
        cluster, (a, pa, buf_a, pd_a, qa), (b, pb, buf_b, pd_b, qb), cqs = make_pair()
        k = cluster.kernel
        got = {}

        def sender():
            mr = yield from a.hca.register_memory(pa.aspace, pd_a, buf_a, MB)
            yield from a.hca.post_send(
                qa, SendWR(wr_id=1, sges=[SGE(buf_a, 512, mr.lkey)], payload="DATA")
            )
            wc = yield from a.hca.wait_completion(cqs["sa"])
            got["send_status"] = wc.status

        def receiver():
            mr = yield from b.hca.register_memory(pb.aspace, pd_b, buf_b, MB)
            yield from b.hca.post_recv(
                qb, RecvWR(wr_id=2, sges=[SGE(buf_b, 4096, mr.lkey)])
            )
            wc = yield from b.hca.wait_completion(cqs["rb"])
            got["payload"] = wc.payload
            got["byte_len"] = wc.byte_len
            got["recv_status"] = wc.status

        k.process(sender())
        k.process(receiver())
        k.run()
        assert got == {
            "send_status": "success",
            "payload": "DATA",
            "byte_len": 512,
            "recv_status": "success",
        }

    def test_send_waits_for_posted_recv(self):
        """RNR behaviour: the message is not consumed until a receive is
        posted; the send completes only afterwards."""
        cluster, (a, pa, buf_a, pd_a, qa), (b, pb, buf_b, pd_b, qb), cqs = make_pair()
        k = cluster.kernel
        times = {}

        def sender():
            mr = yield from a.hca.register_memory(pa.aspace, pd_a, buf_a, MB)
            yield from a.hca.post_send(
                qa, SendWR(wr_id=1, sges=[SGE(buf_a, 64, mr.lkey)])
            )
            yield from a.hca.wait_completion(cqs["sa"])
            times["send_done"] = k.now

        def receiver():
            mr = yield from b.hca.register_memory(pb.aspace, pd_b, buf_b, MB)
            yield k.timeout(500_000)  # post the receive very late
            times["posted"] = k.now
            yield from b.hca.post_recv(
                qb, RecvWR(wr_id=2, sges=[SGE(buf_b, 4096, mr.lkey)])
            )
            yield from b.hca.wait_completion(cqs["rb"])

        k.process(sender())
        k.process(receiver())
        k.run()
        assert times["send_done"] > times["posted"]

    def test_truncation_is_an_error(self):
        cluster, (a, pa, buf_a, pd_a, qa), (b, pb, buf_b, pd_b, qb), cqs = make_pair()
        k = cluster.kernel
        got = {}

        def sender():
            mr = yield from a.hca.register_memory(pa.aspace, pd_a, buf_a, MB)
            yield from a.hca.post_send(
                qa, SendWR(wr_id=1, sges=[SGE(buf_a, 8192, mr.lkey)])
            )
            wc = yield from a.hca.wait_completion(cqs["sa"])
            got["send_status"] = wc.status

        def receiver():
            mr = yield from b.hca.register_memory(pb.aspace, pd_b, buf_b, MB)
            yield from b.hca.post_recv(
                qb, RecvWR(wr_id=2, sges=[SGE(buf_b, 64, mr.lkey)])  # too small
            )
            wc = yield from b.hca.wait_completion(cqs["rb"])
            got["recv_status"] = wc.status

        k.process(sender())
        k.process(receiver())
        k.run()
        assert got["recv_status"] == "local-length-error"
        assert got["send_status"] == "local-length-error"


class TestValidation:
    def test_unconnected_qp_rejected(self):
        cluster = Cluster(presets.systemp_ehca(), 2)
        a = cluster.nodes[0]
        pa = a.new_process()
        pd = ProtectionDomain.fresh()
        qp = a.hca.create_qp(pd, CompletionQueue(cluster.kernel),
                             CompletionQueue(cluster.kernel))

        def attempt():
            buf = pa.aspace.mmap(4096).start
            mr = yield from a.hca.register_memory(pa.aspace, pd, buf, 4096)
            yield from a.hca.post_send(qp, SendWR(wr_id=1, sges=[SGE(buf, 8, mr.lkey)]))

        cluster.kernel.process(attempt())
        with pytest.raises(IBVerbsError):
            cluster.kernel.run()

    def test_bad_lkey_rejected(self):
        cluster, (a, pa, buf_a, pd_a, qa), _, cqs = make_pair()

        def attempt():
            yield from a.hca.post_send(
                qa, SendWR(wr_id=1, sges=[SGE(buf_a, 8, 0xBAD)])
            )

        cluster.kernel.process(attempt())
        with pytest.raises(IBVerbsError):
            cluster.kernel.run()

    def test_sge_outside_mr_rejected(self):
        cluster, (a, pa, buf_a, pd_a, qa), _, cqs = make_pair()

        def attempt():
            mr = yield from a.hca.register_memory(pa.aspace, pd_a, buf_a, 4096)
            yield from a.hca.post_send(
                qa, SendWR(wr_id=1, sges=[SGE(buf_a + 4000, 200, mr.lkey)])
            )

        cluster.kernel.process(attempt())
        with pytest.raises(IBVerbsError):
            cluster.kernel.run()

    def test_wr_needs_sges(self):
        with pytest.raises(IBVerbsError):
            SendWR(wr_id=1, sges=[])
        # zero-length SGEs are legal (the IB spec allows zero-byte
        # messages: header-only on the wire); negative lengths are not
        assert SGE(addr=0, length=0, lkey=1).length == 0
        with pytest.raises(IBVerbsError):
            SGE(addr=0, length=-1, lkey=1)
        with pytest.raises(IBVerbsError):
            SendWR(wr_id=1, sges=[SGE(0, 8, 1)], opcode="atomic_cas")


class TestATTWalk:
    """``HCA._att_range_ns``: the fast-path sweep and the reference
    per-entry walk give the same stalls and leave the same ATT state,
    and both refuse what :meth:`MemoryRegion.entries_for` refuses."""

    def _region(self):
        cluster, (a, pa, buf_a, pd_a, _), _, _ = make_pair()
        got = {}

        def reg():
            got["mr"] = yield from a.hca.register_memory(
                pa.aspace, pd_a, buf_a, 8 * 4096)

        cluster.kernel.process(reg())
        cluster.kernel.run()
        return a.hca, got["mr"]

    @pytest.mark.parametrize("fast", [True, False])
    def test_rejects_what_entries_for_rejects(self, fast):
        hca, mr = self._region()
        end = mr.base + mr.n_entries * mr.entry_page_size
        with fastpath.forced(fast):
            assert hca._att_range_ns(mr, mr.base, 0) == 0.0
            for addr, nbytes in ((mr.base, -1), (mr.base - 1, 8),
                                 (end, 8), (end - 4, 8), (end - 8, 9)):
                with pytest.raises(IBVerbsError) as walk:
                    hca._att_range_ns(mr, addr, nbytes)
                with pytest.raises(IBVerbsError) as geometry:
                    mr.entries_for(addr, nbytes)
                assert str(walk.value) == str(geometry.value)

    def test_fast_and_reference_walks_agree(self):
        dmas = [(0, 4096), (100, 9000), (4096, 4096), (0, 8 * 4096),
                (5 * 4096 + 7, 1), (3 * 4096, 2 * 4096 + 1)]
        runs = []
        for fast in (True, False):
            hca, mr = self._region()
            with fastpath.forced(fast):
                stalls = [hca._att_range_ns(mr, mr.base + off, n)
                          for off, n in dmas]
            runs.append((stalls, [e for _, e in hca.att.keys()]))
        assert runs[0] == runs[1]


class TestRDMAWrite:
    def run_rdma(self, length=256 * 1024, corrupt_rkey=False):
        cluster, (a, pa, buf_a, pd_a, qa), (b, pb, buf_b, pd_b, qb), cqs = make_pair()
        k = cluster.kernel
        got = {}

        def target():
            mr = yield from b.hca.register_memory(pb.aspace, pd_b, buf_b, MB)
            rkey = 0xBAD if corrupt_rkey else mr.rkey
            k.process(initiator(rkey))
            got["mr"] = mr

        def initiator(rkey):
            mr = yield from a.hca.register_memory(pa.aspace, pd_a, buf_a, MB)
            yield from a.hca.post_send(
                qa,
                SendWR(
                    wr_id=9,
                    sges=[SGE(buf_a, length, mr.lkey)],
                    opcode="rdma_write",
                    remote_addr=buf_b,
                    rkey=rkey,
                    payload="RDMA-PAYLOAD",
                ),
            )
            wc = yield from a.hca.wait_completion(cqs["sa"])
            got["status"] = wc.status

        k.process(target())
        k.run()
        return cluster, b, got

    def test_payload_lands_at_target(self):
        _, b, got = self.run_rdma()
        key = (got["mr"].rkey, list(b.hca.rdma_landed)[0][1])
        assert b.hca.rdma_landed[key] == "RDMA-PAYLOAD"
        assert got["status"] == "success"

    def test_no_remote_cqe_for_rdma_write(self):
        cluster, b, _ = self.run_rdma()
        # the target's recv CQ stays empty: RDMA write is one-sided
        for node in cluster.nodes:
            pass
        # (the recv CQ used by the target belongs to qb)
        assert b.hca.counters["hca.rx_messages"] == 1

    def test_bad_rkey_fails_remotely(self):
        _, b, got = self.run_rdma(corrupt_rkey=True)
        assert got["status"] == "remote-access-error"
        assert not b.hca.rdma_landed


class TestBandwidthShapes:
    def _steady_bw(self, spec, size, hugepage_buffers):
        from repro.mem.physical import PAGE_2M, PAGE_4K

        cluster = Cluster(spec, 2)
        k = cluster.kernel
        a, b = cluster.nodes
        pa, pb = a.new_process(), b.new_process()
        ps = PAGE_2M if hugepage_buffers else PAGE_4K
        src = pa.aspace.mmap(size, page_size=ps).start
        dst = pb.aspace.mmap(size, page_size=ps).start
        pd_a, pd_b = ProtectionDomain.fresh(), ProtectionDomain.fresh()
        sa, ra, sb, rb = (CompletionQueue(k) for _ in range(4))
        qa = a.hca.create_qp(pd_a, sa, ra)
        qb = b.hca.create_qp(pd_b, sb, rb)
        HCA.connect_pair(qa, a.hca, qb, b.hca)
        out = {}

        def run():
            mr_dst = yield from b.hca.register_memory(pb.aspace, pd_b, dst, size)
            mr_src = yield from a.hca.register_memory(pa.aspace, pd_a, src, size)
            for i in range(3):
                t0 = k.now
                yield from a.hca.post_send(
                    qa,
                    SendWR(wr_id=i, sges=[SGE(src, size, mr_src.lkey)],
                           opcode="rdma_write", remote_addr=dst, rkey=mr_dst.rkey),
                )
                yield from a.hca.wait_completion(sa)
                out["ticks"] = k.now - t0

        k.process(run())
        k.run()
        return cluster.clock.bandwidth_mb_s(size, out["ticks"])

    def test_opteron_link_limited_either_page_size(self):
        """PCIe slack hides ATT stalls: hugepages change nothing (§5.1)."""
        small = self._steady_bw(presets.opteron_infinihost_pcie(), 4 * MB, False)
        huge = self._steady_bw(presets.opteron_infinihost_pcie(), 4 * MB, True)
        assert small == pytest.approx(huge, rel=0.01)
        assert small > 850  # near the 940 MB/s link

    def test_xeon_att_gain_with_patched_driver(self):
        """PCI-X is the bottleneck; 2 MB translations buy ~5 % (§5.1:
        'increased up to 6 %')."""
        stock = self._steady_bw(
            presets.xeon_infinihost_pcix(hugepage_aware_driver=False), 4 * MB, True
        )
        patched = self._steady_bw(
            presets.xeon_infinihost_pcix(hugepage_aware_driver=True), 4 * MB, True
        )
        gain = (patched - stock) / stock * 100
        assert 2.0 < gain < 8.0
