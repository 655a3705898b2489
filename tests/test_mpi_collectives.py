"""Tests for the collective operations."""

import numpy as np
import pytest

from repro.mpi import MPIWorld
from repro.systems import Cluster, presets

KB = 1024
MB = 1024 * 1024


def run_collective(program, ppn=2, n_nodes=2):
    cluster = Cluster(presets.opteron_infinihost_pcie(), n_nodes=n_nodes)
    world = MPIWorld(cluster, ppn=ppn)
    return world.run(program)


class TestBarrier:
    def test_barrier_synchronises(self):
        def program(comm):
            # stagger arrival: rank r works r*1000 ticks first
            yield from comm.compute_ticks(comm.rank * 1000)
            yield from comm.barrier()
            return comm.kernel.now

        results = run_collective(program)
        times = [r.value for r in results]
        slowest_arrival = max(times)
        # nobody leaves the barrier before the slowest rank arrived
        assert min(times) >= 3000

    def test_back_to_back_barriers(self):
        def program(comm):
            for _ in range(3):
                yield from comm.barrier()
            return True

        assert all(r.value for r in run_collective(program))


class TestBcast:
    @pytest.mark.parametrize("root", [0, 2, 3])
    def test_all_ranks_get_payload(self, root):
        def program(comm):
            data = {"v": 42} if comm.rank == root else None
            got = yield from comm.bcast(root, 256, payload=data)
            return got

        results = run_collective(program)
        assert all(r.value == {"v": 42} for r in results)

    def test_single_rank_world(self):
        def program(comm):
            got = yield from comm.bcast(0, 8, payload="solo")
            return got

        results = run_collective(program, ppn=1, n_nodes=1)
        assert results[0].value == "solo"


class TestReduceAllreduce:
    def test_reduce_sums_at_root(self):
        def program(comm):
            got = yield from comm.reduce(0, 8, value=comm.rank + 1)
            return got

        results = run_collective(program)
        assert results[0].value == sum(range(1, 5))
        assert all(r.value is None for r in results[1:])

    def test_allreduce_sums_everywhere(self):
        def program(comm):
            got = yield from comm.allreduce(8, value=2 ** comm.rank)
            return got

        results = run_collective(program)
        assert all(r.value == 0b1111 for r in results)

    def test_allreduce_numpy_arrays(self):
        def program(comm):
            v = np.full(4, comm.rank, dtype=np.int64)
            got = yield from comm.allreduce(32, value=v, op=lambda a, b: a + b)
            return got

        results = run_collective(program)
        expected = np.full(4, 0 + 1 + 2 + 3, dtype=np.int64)
        for r in results:
            assert np.array_equal(r.value, expected)

    def test_allreduce_custom_op(self):
        def program(comm):
            got = yield from comm.allreduce(8, value=comm.rank, op=max)
            return got

        results = run_collective(program)
        assert all(r.value == 3 for r in results)

    def test_allreduce_non_power_of_two(self):
        def program(comm):
            got = yield from comm.allreduce(8, value=1)
            return got

        results = run_collective(program, ppn=3, n_nodes=1)
        assert all(r.value == 3 for r in results)


class TestAllgather:
    def test_rank_order(self):
        def program(comm):
            got = yield from comm.allgather(8, value=comm.rank * 10)
            return got

        results = run_collective(program)
        assert all(r.value == [0, 10, 20, 30] for r in results)

    def test_large_values_with_buffer(self):
        def program(comm):
            buf = comm.proc.malloc(comm.size * 256 * KB + 4096)
            v = np.full(8, comm.rank, dtype=np.int64)
            got = yield from comm.allgather(256 * KB, value=v, addr=buf)
            return got

        results = run_collective(program)
        for r in results:
            for i, arr in enumerate(r.value):
                assert np.array_equal(arr, np.full(8, i, dtype=np.int64))


class TestAlltoallv:
    def test_payload_routing(self):
        def program(comm):
            payloads = [f"{comm.rank}->{d}" for d in range(comm.size)]
            got = yield from comm.alltoallv([64] * comm.size, payloads=payloads)
            return got

        results = run_collective(program)
        for r in results:
            assert r.value == [f"{s}->{r.rank}" for s in range(4)]

    def test_large_exchange_with_buffers(self):
        def program(comm):
            temp = comm.proc.malloc(MB)
            payloads = [np.array([comm.rank, d]) for d in range(comm.size)]
            got = yield from comm.alltoallv(
                [128 * KB] * comm.size,
                payloads=payloads,
                addrs=[temp] * comm.size,
                recv_addrs=[temp] * comm.size,
            )
            return got

        results = run_collective(program)
        for r in results:
            for s, arr in enumerate(r.value):
                assert np.array_equal(arr, np.array([s, r.rank]))

    def test_sizes_length_validated(self):
        def program(comm):
            yield from comm.alltoallv([8])

        with pytest.raises(ValueError):
            run_collective(program)
