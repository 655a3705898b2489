"""Fine-grained tests of the eager/rendezvous protocol internals, plus a
property test on message-delivery invariants under random schedules."""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.mpi import MPIConfig, MPIWorld
from repro.systems import Cluster, presets

KB = 1024
MB = 1024 * 1024


def make_world(ppn=1, n_nodes=2, **cfg):
    cluster = Cluster(presets.opteron_infinihost_pcie(), n_nodes=n_nodes)
    return MPIWorld(cluster, ppn=ppn, config=MPIConfig(**cfg))


class TestEagerInternals:
    def test_bounce_pool_recycled(self):
        """Bounce buffers return to the pool after local completion —
        many more sends than buffers must not deadlock."""
        world = make_world(bounce_buffers=2)

        def program(comm):
            other = 1 - comm.rank
            if comm.rank == 0:
                for i in range(20):
                    yield from comm.send(other, i, 4 * KB, payload=i)
                return None
            got = []
            for i in range(20):
                payload, *_ = yield from comm.recv(0, i)
                got.append(payload)
            return got

        results = world.run(program)
        assert results[1].value == list(range(20))

    def test_eager_recvs_reposted(self):
        """Pre-posted receive buffers are recycled: message count far
        beyond the prepost depth works."""
        world = make_world(prepost_depth=2)

        def program(comm):
            other = 1 - comm.rank
            if comm.rank == 0:
                for i in range(30):
                    yield from comm.send(other, 7, 1 * KB, payload=i)
                return None
            got = []
            for _ in range(30):
                payload, *_ = yield from comm.recv(0, 7)
                got.append(payload)
            return got

        results = world.run(program)
        assert results[1].value == list(range(30))

    def test_fifo_per_source_tag(self):
        """Messages with the same (source, tag) arrive in send order."""
        world = make_world()

        def program(comm):
            other = 1 - comm.rank
            if comm.rank == 0:
                for i in range(10):
                    yield from comm.send(other, 5, 2 * KB, payload=i)
                return None
            got = []
            for _ in range(10):
                payload, *_ = yield from comm.recv(0, 5)
                got.append(payload)
            return got

        results = world.run(program)
        assert results[1].value == list(range(10))


class TestRendezvousInternals:
    def test_concurrent_rendezvous_to_distinct_buffers(self):
        """Several in-flight rendezvous between the same pair must not
        cross wires (distinct rndv ids, distinct RDMA targets)."""
        world = make_world()
        N = 4

        def program(comm):
            other = 1 - comm.rank
            bufs = [comm.proc.malloc(MB) for _ in range(N)]
            if comm.rank == 0:
                reqs = [
                    comm.endpoint.start_send(other, 100 + i, 256 * KB,
                                             addr=bufs[i], payload=np.full(4, i))
                    for i in range(N)
                ]
                yield comm.kernel.all_of(reqs)
                return None
            reqs = [comm.endpoint.start_recv(0, 100 + i, addr=bufs[i])
                    for i in range(N)]
            results = yield comm.kernel.all_of(reqs)
            return [int(r[0][0]) for r in results]

        results = world.run(program)
        assert results[1].value == list(range(N))

    def test_rendezvous_payload_none_when_size_only(self):
        """Size-only messages (payload=None) still complete correctly."""
        world = make_world()

        def program(comm):
            other = 1 - comm.rank
            buf = comm.proc.malloc(MB)
            if comm.rank == 0:
                yield from comm.send(other, 1, 512 * KB, addr=buf)
                return None
            payload, size, *_ = yield from comm.recv(0, 1, addr=buf)
            return (payload, size)

        results = world.run(program)
        assert results[1].value == (None, 512 * KB)

    def test_copy_rendezvous_chunking(self):
        """12 KB messages travel as bounce chunks but reassemble."""
        world = make_world(eager_buf_bytes=16 * KB, eager_threshold=8 * KB)

        def program(comm):
            other = 1 - comm.rank
            buf = comm.proc.malloc(MB)
            if comm.rank == 0:
                data = np.arange(64)
                yield from comm.send(other, 2, 12 * KB, addr=buf, payload=data)
                return None
            payload, size, *_ = yield from comm.recv(0, 2, addr=buf)
            return (payload.sum(), size)

        results = world.run(program)
        assert results[1].value == (np.arange(64).sum(), 12 * KB)


class TestUnsafePrograms:
    def test_out_of_order_blocking_recv_deadlocks(self):
        """An MPI-unsafe program (blocking recv in an order incompatible
        with a blocking rendezvous send) must deadlock — and the runner
        must detect and report it rather than hang."""
        world = make_world()

        def program(comm):
            other = 1 - comm.rank
            buf = comm.proc.malloc(MB)
            if comm.rank == 0:
                yield from comm.send(other, 0, 256, payload="a")
                yield from comm.send(other, 1, 12 * KB, addr=buf, payload="b")
                yield from comm.send(other, 0, 256, payload="c")
                return None
            yield from comm.recv(0, 0)
            yield from comm.recv(0, 0)  # sender is stuck in tag-1 RTS
            yield from comm.recv(0, 1, addr=buf)
            return None

        with pytest.raises(RuntimeError, match="did not finish"):
            world.run(program)


class TestDeliveryProperty:
    @given(
        messages=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),     # tag bucket
                st.sampled_from([256, 4 * KB, 12 * KB, 64 * KB]),  # size
            ),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_every_message_delivered_exactly_once_in_order(self, messages):
        """Random mixes of eager/copy-rendezvous/RDMA messages across 4
        tags: each (tag) stream arrives complete and in order."""
        world = make_world()

        def program(comm):
            other = 1 - comm.rank
            if comm.rank == 0:
                buf = comm.proc.malloc(MB)
                for seq, (tag, size) in enumerate(messages):
                    yield from comm.send(other, tag, size, addr=buf,
                                         payload=(tag, seq))
                return None
            # receives are pre-posted (the safe-MPI pattern: a blocking
            # recv in the "wrong" tag order would legally deadlock
            # against a blocking rendezvous send); one buffer each so
            # concurrent RDMA targets stay distinct
            reqs = []
            for i, (tag, _size) in enumerate(messages):
                rbuf = comm.proc.malloc(MB)
                reqs.append((tag, comm.endpoint.start_recv(0, tag, addr=rbuf)))
            got = {}
            for tag, req in reqs:
                payload, *_ = yield req
                got.setdefault(tag, []).append(payload)
            return got

        results = world.run(program)
        got = results[1].value
        # exactly once, in global send order per tag
        for tag in got:
            expected = [(t, s) for s, (t, _sz) in enumerate(messages) if t == tag]
            assert got[tag] == expected
