"""Tests for nonblocking messages: requests started with
``Endpoint.start_send``/``start_recv`` and completed by yielding them."""

from repro.mpi import MPIConfig, MPIWorld
from repro.systems import Cluster, presets

KB = 1024
MB = 1024 * 1024


def make_world(ppn=1, n_nodes=2, **cfg):
    cluster = Cluster(presets.opteron_infinihost_pcie(), n_nodes=n_nodes)
    return MPIWorld(cluster, ppn=ppn, config=MPIConfig(**cfg))


class TestNonblocking:
    def test_isend_irecv_roundtrip(self):
        world = make_world()

        def program(comm):
            other = 1 - comm.rank
            buf = comm.proc.malloc(MB)
            req_s = comm.endpoint.start_send(other, 1, 64 * KB, addr=buf,
                                             payload=f"nb-{comm.rank}")
            req_r = comm.endpoint.start_recv(other, 1, addr=buf)
            yield req_s
            payload, size, src, tag = yield req_r
            return (payload, size, src, tag)

        results = world.run(program)
        assert results[0].value == ("nb-1", 64 * KB, 1, 1)
        assert results[1].value == ("nb-0", 64 * KB, 0, 1)

    def test_waitall_many_requests(self):
        world = make_world()

        def program(comm):
            other = 1 - comm.rank
            reqs = []
            for i in range(5):
                reqs.append(comm.endpoint.start_send(
                    other, 100 + i, 2 * KB, payload=f"m{i}-from{comm.rank}"))
            for i in range(5):
                reqs.append(comm.endpoint.start_recv(other, 100 + i))
            results = yield comm.kernel.all_of(reqs)
            return [r[0] for r in results[5:]]

        results = world.run(program)
        assert results[0].value == [f"m{i}-from1" for i in range(5)]
        assert results[1].value == [f"m{i}-from0" for i in range(5)]

    def test_overlap_hides_communication(self):
        """The point of nonblocking ops: compute while the wire works."""

        def run(overlapped):
            world = make_world()
            out = {}

            def program(comm):
                other = 1 - comm.rank
                buf = comm.proc.malloc(MB)
                t0 = comm.kernel.now
                if overlapped:
                    rr = comm.endpoint.start_recv(other, 1, addr=buf)
                    rs = comm.endpoint.start_send(other, 1, 512 * KB, addr=buf)
                    yield from comm.compute_ticks(400_000)
                    yield comm.kernel.all_of([rr, rs])
                else:
                    rr = comm.endpoint.start_recv(other, 1, addr=buf)
                    rs = comm.endpoint.start_send(other, 1, 512 * KB, addr=buf)
                    yield comm.kernel.all_of([rr, rs])
                    yield from comm.compute_ticks(400_000)
                if comm.rank == 0:
                    out["ticks"] = comm.kernel.now - t0
                return None

            world.run(program)
            return out["ticks"]

        assert run(overlapped=True) < run(overlapped=False)
