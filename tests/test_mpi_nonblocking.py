"""Tests for the nonblocking MPI operations (isend/irecv/wait/waitall)."""

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
            req_s = comm.isend(other, 1, 64 * KB, addr=buf,
                               payload=f"nb-{comm.rank}")
            req_r = comm.irecv(other, 1, addr=buf)
            yield from comm.wait(req_s)
            payload, size, src, tag = yield from comm.wait(req_r)
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
                reqs.append(comm.isend(other, 100 + i, 2 * KB,
                                       payload=f"m{i}-from{comm.rank}"))
            for i in range(5):
                reqs.append(comm.irecv(other, 100 + i))
            results = yield from comm.waitall(reqs)
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
                    rr = comm.irecv(other, 1, addr=buf)
                    rs = comm.isend(other, 1, 512 * KB, addr=buf)
                    yield from comm.compute_ticks(400_000)
                    yield from comm.waitall([rr, rs])
                else:
                    rr = comm.irecv(other, 1, addr=buf)
                    rs = comm.isend(other, 1, 512 * KB, addr=buf)
                    yield from comm.waitall([rr, rs])
                    yield from comm.compute_ticks(400_000)
                if comm.rank == 0:
                    out["ticks"] = comm.kernel.now - t0
                return None

            world.run(program)
            return out["ticks"]

        assert run(overlapped=True) < run(overlapped=False)

    def test_wait_records_profiler_time(self):
        world = make_world()

        def program(comm):
            other = 1 - comm.rank
            rs = comm.isend(other, 1, 1 * KB, payload="x")
            rr = comm.irecv(other, 1)
            yield from comm.wait(rs)
            yield from comm.wait(rr)
            return ("MPI_Wait" in comm.profiler.summary())

        results = world.run(program)
        assert all(r.value for r in results)
