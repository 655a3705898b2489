"""The MPI message path, pinned to what its generator oracle produced.

``Endpoint.start_send``/``start_recv`` run every protocol as a callback
chain, with or without a fault plan.  The generator protocols these
chains replaced are gone; while both existed they gave identical
results, profiler records, final ticks, counters and trace spans, and
the literals below are those common values.  The chains must also
release a rendezvous registration (and an RDMA-read exposure) when a
post fails, and leave no send-completion waiter behind for it.
"""

import hashlib
import json

import numpy as np
import pytest

from repro import trace
from repro.engine.core import Process
from repro.faults import FaultPlan
from repro.ib.verbs import (SGE, CompletionQueue, IBVerbsError,
                            ProtectionDomain, RecvWR, WorkCompletion)
from repro.mpi import MPIConfig, MPIWorld
from repro.systems import Cluster, presets
from repro.trace import Tracer

KB = 1024
MB = 1024 * KB


def _digest(results, counters):
    """sha256 of a run's values, profiler records and counters.

    The text hashed is one JSON line per rank, ``[rank, repr(value)]``,
    then one per profiler record, ``[rank, name, calls, ticks,
    bytes_moved]`` (ranks in order, names sorted), then one per counter,
    ``[key, value]`` (keys sorted), joined by newlines.
    """
    lines = [json.dumps([r.rank, repr(r.value)]) for r in results]
    lines += [json.dumps([r.rank, rec.name, rec.calls, rec.ticks,
                          rec.bytes_moved])
              for r in results
              for rec in sorted(r.profiler.records.values(),
                                key=lambda rec: rec.name)]
    lines += [json.dumps([key, value]) for key, value in sorted(counters.items())]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _run(program, n_nodes=2, ppn=1, config=None, fault_plan=None):
    """Run *program* on a fresh world; returns the rank values, and the
    pin ``(app ticks per rank, final tick, digest)`` (see :func:`_digest`)."""
    cluster = Cluster(presets.opteron_infinihost_pcie(), n_nodes,
                      fault_plan=fault_plan)
    world = MPIWorld(cluster, ppn=ppn, config=config)
    results = world.run(program)
    counters = dict(cluster.aggregate_counters())
    pin = ([r.app_ticks for r in results], cluster.kernel.now,
           _digest(results, counters))
    return [r.value for r in results], pin, counters


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


#: ``(app ticks per rank, final tick, digest)`` of each case (see :func:`_run`)
PIN_EAGER_1B = ([1746, 1597], 12499,
    '1255f912d6347cd171e327d14bcfb30cc1b304b8e11650a7b3977740348ef55e')
PIN_EAGER_1K = ([1964, 1851], 12717,
    '106c20ffe92e4eb64681ae23e479ae7d843b8946b5e1038cf525ff43cd0da39b')
PIN_EAGER_8K = ([4166, 4339], 15092,
    'edaf91dd219f5d972424c51012548469992c7229e35a593d89c9e695823e97bc')
PIN_COPY_RNDV = ([6946, 7119], 17872,
    '338770bb1568088f4928753a352d24f8317d2749235692ed2629fe675396c689')
PIN_WRITE_LAZY = ([75020, 74847], 85773,
    '6961db86f5e35e3e3f9388741d98d884591591bf54ab9ec05e3e193a119d04b8')
PIN_WRITE_DEREG = ([78524, 78697], 89450,
    '3ec807b1694b974e10f75bb12cc30be7c90f73d509ee7acf251046895292e6c5')
PIN_READ_LAZY = ([74231, 74404], 85157,
    'f4f9ff2a6de3fed7a07e890e147dfded804c59c9d8bcb365d5820587ca7f506f')
PIN_READ_DEREG = ([78081, 77908], 88834,
    '85db4a80f85de7b51cd725bc7d608b9f3c8fdeb1e083419e0a0b125a65941fd5')
PIN_INTRA = ([650, 650], 9978,
    '832ba6b50c9fc36f3dd0283de9edf91580cd91b0e639c2e167d3072f325f230e')
PIN_EVICT = ([231062, 230889], 241815,
    'c7706b19feeee4a51a0e4187e97be46a2234448d940bb0b490505fb2b6078b0a')
PIN_RING = ([558910, 558910, 558910, 558910], 573256,
    '8d11ce3c61aa2284ebe3b14353ef070b1a1973191cdda585f8171ff5286e1e4a')
PIN_WAITALL = ([26567, 26567], 37320,
    '39b7eb5e74204270a1e83f7b80018334a029793a83477a62ee4f38f4ab977ccb')
PIN_COLLECTIVES = ([156335, 156335, 156335, 156335], 170681,
    '2d18bbb70415c6a67587bbacb0d8df43a58b8521002053083cae9faecc8efc0a')

#: ``(protocol, size, pin)`` on both sides of the eager (8 KB) and RDMA
#: (16 KB) thresholds, and well above them
SIZE_GRID = [
    ('write', 1, ([1746, 1597], 12499,
     '1255f912d6347cd171e327d14bcfb30cc1b304b8e11650a7b3977740348ef55e')),
    ('write', 8 * KB, ([4166, 4339], 15092,
     'edaf91dd219f5d972424c51012548469992c7229e35a593d89c9e695823e97bc')),
    ('write', 8 * KB + 1, ([5547, 5720], 16473,
     'ace1d044b516ffc1802c20a058b79aed94219c90e3ba7a8a01fb100d8462f1db')),
    ('write', 16 * KB, ([8361, 8534], 19287,
     '993ae72ca7c4c99426dfd6ca4d891efb2b2a71183264dfdc0267704e0ca0d08b')),
    ('write', 16 * KB + 1, ([13980, 13807], 24733,
     '1ce4db1cba1a355e9c606ebe1d171fde61b07ce0ad6de2d66ffbab4936a5197a')),
    ('write', 64 * KB, ([26181, 26008], 36934,
     'db72f62fe9b47e4727570024131d4b78ef4afe544098e9a83fd811618aadc154')),
    ('write', 4 * MB, ([1051810, 1051637], 1062563,
     '6abfde7d532b8f12692245f1f7d207d82a9975f81282ab3b8e000787ce70fc5a')),
    ('read', 1, ([1746, 1597], 12499,
     '1255f912d6347cd171e327d14bcfb30cc1b304b8e11650a7b3977740348ef55e')),
    ('read', 8 * KB, ([4166, 4339], 15092,
     'edaf91dd219f5d972424c51012548469992c7229e35a593d89c9e695823e97bc')),
    ('read', 8 * KB + 1, ([5547, 5720], 16473,
     'ace1d044b516ffc1802c20a058b79aed94219c90e3ba7a8a01fb100d8462f1db')),
    ('read', 16 * KB, ([8361, 8534], 19287,
     '993ae72ca7c4c99426dfd6ca4d891efb2b2a71183264dfdc0267704e0ca0d08b')),
    ('read', 16 * KB + 1, ([13191, 13364], 24117,
     '6c44c611012ace82f6b19af794f6cdec796f9122c9719a1117f365b22450fcfb')),
    ('read', 64 * KB, ([25392, 25565], 36318,
     'e5ed2704af68d776b9bbcd923fe5db473743ba4204878a4084982e21fac3c8f4')),
    ('read', 4 * MB, ([1051021, 1051194], 1061947,
     '8406ff6f855c6b52195ce5a5bf6e4f41017fcb4c53a0943eb8b24887d15e1068')),
]

#: ``(span count, digest)`` of :func:`_read_rendezvous_spans`
READ_SPANS = (69, '90689cbb44c6ab2be844015633d1c6755272e557af81eefc483b942d3815d9a8')


class TestFoldMatchesOracle:
    """Each case's pin is what the chains and the generator oracle both
    produced; the class keeps its name so its test ids stay stable."""

    @pytest.mark.parametrize("size,pin", [
        (1, PIN_EAGER_1B),
        (1 * KB, PIN_EAGER_1K),
        (8 * KB, PIN_EAGER_8K),
    ], ids=["1B", "1K", "8K"])
    def test_eager(self, size, pin):
        values, got, _ = _run(_pair_program(size))
        assert values[1] == (("data", size), size, 0, 7)
        assert got == pin

    def test_copy_rendezvous(self):
        values, got, _ = _run(_pair_program(12 * KB))
        assert values[1][0] == ("data", 12 * KB)
        assert got == PIN_COPY_RNDV

    @pytest.mark.parametrize("lazy,pin", [
        (True, PIN_WRITE_LAZY), (False, PIN_WRITE_DEREG),
    ], ids=["lazy", "eager-dereg"])
    def test_rdma_write(self, lazy, pin):
        values, got, _ = _run(_pair_program(256 * KB),
                              config=MPIConfig(lazy_dereg=lazy))
        assert values[1][0] == ("data", 256 * KB)
        assert got == pin

    @pytest.mark.parametrize("lazy,pin", [
        (True, PIN_READ_LAZY), (False, PIN_READ_DEREG),
    ], ids=["lazy", "eager-dereg"])
    def test_rdma_read(self, lazy, pin):
        values, got, _ = _run(
            _pair_program(256 * KB),
            config=MPIConfig(rndv_protocol="read", lazy_dereg=lazy),
        )
        assert values[1][0] == ("data", 256 * KB)
        assert got == pin

    def test_intra_node(self):
        values, got, counters = _run(_pair_program(4 * KB), n_nodes=1, ppn=2)
        assert counters.get("hca.tx_messages", 0) == 0
        assert got == PIN_INTRA

    def test_regcache_capacity_evictions(self):
        def program(comm):
            bufs = [comm.proc.malloc(256 * KB) for _ in range(3)]
            for buf in bufs:
                if comm.rank == 0:
                    yield from comm.send(1, 1, 256 * KB, addr=buf)
                else:
                    yield from comm.recv(0, 1, addr=buf)
            return comm.endpoint.regcache.misses

        values, got, counters = _run(
            program, config=MPIConfig(regcache_capacity=300 * KB))
        assert counters["regcache.evict"] > 0
        assert got == PIN_EVICT

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

        values, got, _ = _run(program, n_nodes=2, ppn=2)
        assert values[0][0] == ((3, 2 * KB), 2 * KB, 3)
        assert got == PIN_RING

    def test_isend_irecv_waitall(self):
        def program(comm):
            buf = comm.proc.malloc(MB)
            other = 1 - comm.rank
            ep = comm.endpoint
            reqs = [ep.start_recv(other, tag, addr=buf + tag * 64 * KB)
                    for tag in range(3)]
            reqs += [ep.start_send(other, tag, size, addr=buf + 512 * KB,
                                   payload=(comm.rank, tag))
                     for tag, size in enumerate([100, 12 * KB, 64 * KB])]
            results = yield comm.kernel.all_of(reqs)
            last = yield reqs[0]  # already complete
            return results[:3], last

        values, got, _ = _run(program)
        assert values[1][0][2] == ((0, 2), 64 * KB, 0, 2)
        assert got == PIN_WAITALL

    def test_barrier_and_allreduce(self):
        def program(comm):
            yield from comm.barrier()
            small = yield from comm.allreduce(8, value=comm.rank + 1)
            buf = comm.proc.malloc(MB)
            big = yield from comm.allreduce(256 * KB, value=np.full(4, comm.rank),
                                            addr=buf)
            yield from comm.barrier()
            return small, big.tolist()

        values, got, _ = _run(program, n_nodes=2, ppn=2)
        assert values[0] == (10, [6, 6, 6, 6])
        assert got == PIN_COLLECTIVES

    @pytest.mark.parametrize("protocol,size,pin", SIZE_GRID,
                             ids=[f"{p}-{s}B" for p, s, _ in SIZE_GRID])
    def test_size_grid_either_protocol(self, protocol, size, pin):
        """Both sides of each protocol threshold, on both rendezvous
        protocols."""
        values, got, _ = _run(_pair_program(size),
                              config=MPIConfig(rndv_protocol=protocol))
        assert values[1] == (("data", size), size, 0, 7)
        assert got == pin


class TestHCACallbackForms:
    """The generator verbs are adapters that wait on their callback
    forms: these check that an adapter resumes at the tick, and with the
    queue state and counters, of the callback form's continuation."""

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
            req = (comm.endpoint.start_send(other, 1, 64 * KB, addr=buf)
                   if comm.rank == 0
                   else comm.endpoint.start_recv(other, 1, addr=buf))
            kinds.append(isinstance(req, Process))
            yield req
            return None

        _run(program, fault_plan=fault_plan)
        return kinds

    def test_clean_path_spawns_no_process(self):
        assert self._request_types() == [False, False]

    def test_fault_plan_spawns_no_process(self):
        plan = FaultPlan.from_spec("link_loss=0.0001", seed=3)
        assert self._request_types(fault_plan=plan) == [False, False]


def _read_rendezvous_spans():
    """The ``X`` spans of a traced 4 KB and 64 KB exchange on the read
    rendezvous, as sorted ``(ts, dur, name, track, args)`` tuples."""
    tracer = Tracer()
    with trace.capturing(tracer):
        for size in (4 * KB, 64 * KB):
            _run(_pair_program(size), config=MPIConfig(rndv_protocol="read"))
        tracer.flush()
    return sorted(
        (ev["ts"], ev["dur"], ev["name"], ev["track"], sorted(ev["args"].items()))
        for ev in tracer.events if ev["ph"] == "X"
    )


def test_read_rendezvous_spans_are_pinned():
    """The fig5 span signature covers the write rendezvous; this pins the
    read one.  The digest is of ``repr`` of the span list, one tuple per
    line."""
    spans = _read_rendezvous_spans()
    names = {span[2] for span in spans}
    assert {"mpi.setup", "mpi.eager.send", "mpi.eager.recv",
            "mpi.rndv.read.send", "mpi.rndv.read.recv"} <= names
    text = "\n".join(repr(span) for span in spans)
    assert (len(spans), hashlib.sha256(text.encode()).hexdigest()) == READ_SPANS


@pytest.mark.parametrize("lazy", [True, False], ids=["lazy", "eager-dereg"])
@pytest.mark.parametrize("protocol,rank", [
    ("write", 0),  # sender: the RDMA-write post
    ("write", 1),  # receiver: the CTS post
    ("read", 0),   # sender: the RTS post, buffer exposed
    ("read", 1),   # receiver: the RDMA-read post
], ids=["write-sender", "write-receiver", "read-sender", "read-receiver"])
def test_failed_post_releases_registration(protocol, rank, lazy):
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

    with pytest.raises(IBVerbsError):
        world.run(program)
    assert len(pinned) == 1
    assert not ep.regcache.pinned(pinned[0])
    assert ep.hca.rdma_exposed == {}
    assert pinned[0].registered == lazy
    assert ep._send_waiters == {}


def test_failed_eager_post_leaves_no_send_waiter():
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
    with pytest.raises(IBVerbsError):
        world.run(program)
    assert failures == [0, 64, 1 * KB]
    assert ep._send_waiters == {}
