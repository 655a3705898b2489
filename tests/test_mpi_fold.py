"""The folded MPI message path matches its generator oracle.

On the clean path ``Endpoint.start_send``/``start_recv`` run every
protocol as a callback chain; ``fastpath.fold_forced(False)`` (or a
fault plan) runs the generator protocols as processes instead.  Both
must give the same results, profiler records, final tick and counters,
and the same trace spans.  The chains and the oracle must also release
a rendezvous registration (and an RDMA-read exposure) when a post fails,
and leave no send-completion waiter behind for it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import fastpath, trace
from repro.engine.core import Process
from repro.faults import FaultPlan
from repro.ib.verbs import (SGE, CompletionQueue, IBVerbsError,
                            ProtectionDomain, RecvWR, WorkCompletion)
from repro.mpi import MPIConfig, MPIWorld
from repro.systems import Cluster, presets
from repro.trace import Tracer
from repro.workloads.imb import SendRecvBenchmark

KB = 1024
MB = 1024 * KB


def _run(program, n_nodes=2, ppn=1, config=None, fault_plan=None):
    """Run *program* on a fresh world; returns everything the fold must
    leave unchanged."""
    cluster = Cluster(presets.opteron_infinihost_pcie(), n_nodes,
                      fault_plan=fault_plan)
    world = MPIWorld(cluster, ppn=ppn, config=config)
    results = world.run(program)
    return {
        "values": [r.value for r in results],
        "profiles": [r.profiler.records for r in results],
        "app_ticks": [r.app_ticks for r in results],
        "tick": cluster.kernel.now,
        "counters": dict(cluster.aggregate_counters()),
    }


def _both(program, **kwargs):
    with fastpath.fold_forced(True):
        folded = _run(program, **kwargs)
    with fastpath.fold_forced(False):
        oracle = _run(program, **kwargs)
    return folded, oracle


def _pair_program(size, tag=7):
    """Rank 0 sends *size* bytes to rank 1 (real buffers, a payload)."""
    def program(comm):
        buf = comm.proc.malloc(max(size, 64))
        if comm.rank == 0:
            yield from comm.send(1, tag, size, addr=buf, payload=("data", size))
            return None
        payload, nbytes, src, got_tag = yield from comm.recv(0, tag, addr=buf)
        return payload, nbytes, src, got_tag

    return program


class TestFoldMatchesOracle:
    @pytest.mark.parametrize("size", [1, 1 * KB, 8 * KB], ids=["1B", "1K", "8K"])
    def test_eager(self, size):
        folded, oracle = _both(_pair_program(size))
        assert folded == oracle
        assert folded["values"][1] == (("data", size), size, 0, 7)

    def test_copy_rendezvous(self):
        folded, oracle = _both(_pair_program(12 * KB))
        assert folded == oracle
        assert folded["values"][1][0] == ("data", 12 * KB)

    @pytest.mark.parametrize("lazy", [True, False], ids=["lazy", "eager-dereg"])
    def test_rdma_write(self, lazy):
        folded, oracle = _both(_pair_program(256 * KB),
                               config=MPIConfig(lazy_dereg=lazy))
        assert folded == oracle
        assert folded["values"][1][0] == ("data", 256 * KB)

    @pytest.mark.parametrize("lazy", [True, False], ids=["lazy", "eager-dereg"])
    def test_rdma_read(self, lazy):
        folded, oracle = _both(
            _pair_program(256 * KB),
            config=MPIConfig(rndv_protocol="read", lazy_dereg=lazy),
        )
        assert folded == oracle
        assert folded["values"][1][0] == ("data", 256 * KB)

    def test_intra_node(self):
        folded, oracle = _both(_pair_program(4 * KB), n_nodes=1, ppn=2)
        assert folded == oracle
        assert folded["counters"].get("hca.tx_messages", 0) == 0

    def test_regcache_capacity_evictions(self):
        def program(comm):
            bufs = [comm.proc.malloc(256 * KB) for _ in range(3)]
            for buf in bufs:
                if comm.rank == 0:
                    yield from comm.send(1, 1, 256 * KB, addr=buf)
                else:
                    yield from comm.recv(0, 1, addr=buf)
            return comm.endpoint.regcache.misses

        folded, oracle = _both(
            program, config=MPIConfig(regcache_capacity=300 * KB))
        assert folded == oracle
        assert folded["counters"]["regcache.evict"] > 0

    def test_sendrecv_ring(self):
        sizes = [2 * KB, 12 * KB, 64 * KB, 1 * MB]

        def program(comm):
            send_buf = comm.proc.malloc(MB)
            recv_buf = comm.proc.malloc(MB)
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            got = []
            for size in sizes:
                for _ in range(2):
                    payload, nbytes, src, _tag = yield from comm.sendrecv(
                        right, 77, size, source=left, recvtag=77,
                        send_addr=send_buf, recv_addr=recv_buf,
                        payload=(comm.rank, size),
                    )
                    got.append((payload, nbytes, src))
            return got

        folded, oracle = _both(program, n_nodes=2, ppn=2)
        assert folded == oracle
        assert folded["values"][0][0] == ((3, 2 * KB), 2 * KB, 3)

    def test_isend_irecv_waitall(self):
        def program(comm):
            buf = comm.proc.malloc(MB)
            other = 1 - comm.rank
            reqs = [comm.irecv(other, tag, addr=buf + tag * 64 * KB)
                    for tag in range(3)]
            reqs += [comm.isend(other, tag, size, addr=buf + 512 * KB,
                                payload=(comm.rank, tag))
                     for tag, size in enumerate([100, 12 * KB, 64 * KB])]
            results = yield from comm.waitall(reqs)
            last = yield from comm.wait(reqs[0])  # already complete
            return results[:3], last

        folded, oracle = _both(program)
        assert folded == oracle
        assert folded["values"][1][0][2] == ((0, 2), 64 * KB, 0, 2)

    def test_barrier_and_allreduce(self):
        def program(comm):
            yield from comm.barrier()
            small = yield from comm.allreduce(8, value=comm.rank + 1)
            buf = comm.proc.malloc(MB)
            big = yield from comm.allreduce(256 * KB, value=np.full(4, comm.rank),
                                            addr=buf)
            yield from comm.barrier()
            return small, big.tolist()

        folded, oracle = _both(program, n_nodes=2, ppn=2)
        assert folded == oracle
        assert folded["values"][0] == (10, [6, 6, 6, 6])

    @settings(max_examples=8, deadline=None)
    @given(size=st.integers(min_value=1, max_value=4 * MB),
           protocol=st.sampled_from(["write", "read"]))
    def test_any_size_either_protocol(self, size, protocol):
        folded, oracle = _both(_pair_program(size),
                               config=MPIConfig(rndv_protocol=protocol))
        assert folded == oracle
        assert folded["values"][1] == (("data", size), size, 0, 7)


class TestHCACallbackForms:
    """The progress engines use the adapter's callback forms in both
    MPI forms, so these pin them to the generator forms directly."""

    @staticmethod
    def _node():
        cluster = Cluster(presets.opteron_infinihost_pcie(), 1)
        return cluster.kernel, cluster.nodes[0]

    def _poll_times(self, chain):
        k, node = self._node()
        hca = node.hca
        cq = CompletionQueue(k)
        seen = []

        def land():
            yield k.timeout(10)
            for wr_id in (1, 2):  # the second waits behind the first
                cq.store.put_nowait(WorkCompletion(wr_id, "send", 0))

        def poller():
            for _ in range(2):
                wc = yield from hca.wait_completion(cq)
                seen.append((k.now, wc.wr_id))

        def on_wc(wc):
            seen.append((k.now, wc.wr_id))
            if len(seen) < 2:
                hca.poll_then(cq, on_wc)

        k.process(land())
        if chain:
            hca.poll_then(cq, on_wc)
        else:
            k.process(poller())
        k.run()
        return seen, hca.clock.ns_to_ticks(hca.config.poll_ns)

    def test_poll_then_matches_wait_completion(self):
        seen, poll = self._poll_times(chain=True)
        assert seen == self._poll_times(chain=False)[0]
        assert seen == [(10 + poll, 1), (10 + 2 * poll, 2)]

    def _post_recv_times(self, chain):
        k, node = self._node()
        hca = node.hca
        proc = node.new_process()
        pd = ProtectionDomain.fresh()
        buf = proc.aspace.mmap(64 * KB).start
        registration = k.process(hca.register_memory(proc.aspace, pd, buf, 64 * KB))
        k.run()
        mr = registration.value
        qp = hca.create_qp(pd, CompletionQueue(k), CompletionQueue(k))
        queued = []

        def wr(i):
            return RecvWR(wr_id=i, sges=[SGE(buf + i * KB, KB, mr.lkey)])

        def poster():
            for i in range(2):
                yield from hca.post_recv(qp, wr(i))
                queued.append((k.now, len(qp.recv_q)))

        def post(i):
            if i < 2:
                hca.post_recv_then(qp, wr(i), lambda: (
                    queued.append((k.now, len(qp.recv_q))), post(i + 1)))

        if chain:
            post(0)
        else:
            k.process(poster())
        k.run()
        return queued, dict(hca.counters.snapshot())

    def test_post_recv_then_matches_post_recv(self):
        assert self._post_recv_times(True) == self._post_recv_times(False)


class TestOracleSelection:
    def _request_types(self, fault_plan=None):
        kinds = []

        def program(comm):
            buf = comm.proc.malloc(64 * KB)
            other = 1 - comm.rank
            req = (comm.isend(other, 1, 64 * KB, addr=buf) if comm.rank == 0
                   else comm.irecv(other, 1, addr=buf))
            kinds.append(isinstance(req, Process))
            yield from comm.wait(req)
            return None

        _run(program, fault_plan=fault_plan)
        return kinds

    def test_clean_path_spawns_no_process(self):
        with fastpath.fold_forced(True):
            assert self._request_types() == [False, False]

    def test_no_fold_runs_the_generator_form(self):
        with fastpath.fold_forced(False):
            assert self._request_types() == [True, True]

    def test_fault_plan_runs_the_generator_form(self):
        plan = FaultPlan.from_spec("link_loss=0.0001", seed=3)
        with fastpath.fold_forced(True):
            assert self._request_types(fault_plan=plan) == [True, True]


def _spans(fold):
    tracer = Tracer()
    bench = SendRecvBenchmark(presets.opteron_infinihost_pcie)
    with fastpath.fold_forced(fold), trace.capturing(tracer):
        bench.run([4 * KB, 64 * KB], hugepages=False, lazy_dereg=True,
                  iterations=2, warmup=1)
        tracer.flush()
    return sorted(
        (ev["ts"], ev["dur"], ev["name"], ev["track"], sorted(ev["args"].items()))
        for ev in tracer.events if ev["ph"] == "X"
    )


def test_trace_spans_match_oracle():
    folded = _spans(True)
    assert folded == _spans(False)
    names = {span[2] for span in folded}
    assert {"mpi.setup", "mpi.eager.send", "mpi.eager.recv",
            "mpi.rndv.write.send", "mpi.rndv.write.recv"} <= names


@pytest.mark.parametrize("fold", [True, False], ids=["folded", "oracle"])
@pytest.mark.parametrize("lazy", [True, False], ids=["lazy", "eager-dereg"])
@pytest.mark.parametrize("protocol,rank", [
    ("write", 0),  # sender: the RDMA-write post
    ("write", 1),  # receiver: the CTS post
    ("read", 0),   # sender: the RTS post, buffer exposed
    ("read", 1),   # receiver: the RDMA-read post
], ids=["write-sender", "write-receiver", "read-sender", "read-receiver"])
def test_failed_post_releases_registration(protocol, rank, lazy, fold):
    """The QP of *rank* leaves RTS right after its rendezvous acquires
    the user buffer, so the next post raises: the pin and any exposure
    must be gone once the run surfaces the error."""
    cluster = Cluster(presets.opteron_infinihost_pcie(), 2)
    world = MPIWorld(cluster, ppn=1,
                     config=MPIConfig(rndv_protocol=protocol, lazy_dereg=lazy))
    ep = world.endpoint(rank)
    pinned = []
    pin = ep.regcache._pin

    def pin_then_break_qp(mr):
        pin(mr)
        pinned.append(mr)
        ep.qp_for(1 - rank).modify("ERROR")

    ep.regcache._pin = pin_then_break_qp

    def program(comm):
        buf = comm.proc.malloc(MB)
        if comm.rank == 0:
            yield from comm.send(1, 5, 256 * KB, addr=buf, payload="x")
        else:
            yield from comm.recv(0, 5, addr=buf)
        return None

    with fastpath.fold_forced(fold), pytest.raises(IBVerbsError):
        world.run(program)
    assert len(pinned) == 1
    assert not ep.regcache.pinned(pinned[0])
    assert ep.hca.rdma_exposed == {}
    assert pinned[0].registered == lazy
    assert ep._send_waiters == {}


@pytest.mark.parametrize("fold", [True, False], ids=["folded", "oracle"])
def test_failed_eager_post_leaves_no_send_waiter(fold):
    """Eager sends on a QP forced to ERROR raise at the post; the
    completion continuation is registered only after a post returns, so
    none of them stays in the endpoint's send-waiter table."""
    cluster = Cluster(presets.opteron_infinihost_pcie(), 2)
    world = MPIWorld(cluster, ppn=1)
    ep = world.endpoint(0)
    failures = []

    def program(comm):
        if comm.rank == 1:
            return None
        ep.qp_for(1).modify("ERROR")
        buf = comm.proc.malloc(64)
        for size in (0, 64, 1 * KB):
            try:
                yield from comm.send(1, 5, size, addr=buf, payload="x")
            except IBVerbsError:
                failures.append(size)
        return None
        yield

    # the closing barrier's send fails the same way and ends the run
    with fastpath.fold_forced(fold), pytest.raises(IBVerbsError):
        world.run(program)
    assert failures == [0, 64, 1 * KB]
    assert ep._send_waiters == {}
