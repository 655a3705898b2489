"""Tests for the PingPong benchmark and >2-node cluster operation."""

import pytest

from repro.mpi import MPIWorld
from repro.systems import Cluster, presets
from repro.workloads.imb import PingPongBenchmark

KB = 1024
MB = 1024 * 1024


class TestPingPong:
    @pytest.fixture(scope="class")
    def sweep(self):
        bench = PingPongBenchmark(presets.opteron_infinihost_pcie)
        return bench.run([64, 1 * KB, 8 * KB, 64 * KB, 1 * MB],
                         hugepages=False)

    def test_small_message_latency_era_plausible(self, sweep):
        """IB 4x SDR small-message half-RTT was ~4-6 us in 2006."""
        lat = sweep.rows[0].latency_us
        assert 2.0 < lat < 10.0

    def test_latency_monotone_in_size(self, sweep):
        lats = [r.latency_us for r in sweep.rows]
        assert lats == sorted(lats)

    def test_unidirectional_bandwidth_below_link(self, sweep):
        assert sweep.bandwidth_at(1 * MB) < 940.0

    def test_eager_latency_insensitive_to_placement(self):
        """Below the RDMA threshold, hugepages buy nothing — the §5.1
        protocol map, seen from the latency side."""
        bench = PingPongBenchmark(presets.opteron_infinihost_pcie)
        small = bench.run([1 * KB], hugepages=False)
        huge = bench.run([1 * KB], hugepages=True)
        assert small.rows[0].latency_us == pytest.approx(
            huge.rows[0].latency_us, rel=0.05
        )

    def test_validation(self):
        bench = PingPongBenchmark(presets.opteron_infinihost_pcie)
        with pytest.raises(ValueError):
            bench.run([], hugepages=False)


class TestMultiNode:
    def test_four_node_collectives(self):
        """Full-mesh wiring: collectives across 4 nodes x 2 ranks."""
        cluster = Cluster(presets.opteron_infinihost_pcie(), n_nodes=4)
        world = MPIWorld(cluster, ppn=2)

        def program(comm):
            total = yield from comm.allreduce(8, value=comm.rank)
            vals = yield from comm.allgather(8, value=comm.rank ** 2)
            yield from comm.barrier()
            return (total, vals)

        results = world.run(program)
        expected_sum = sum(range(8))
        expected_sq = [r * r for r in range(8)]
        for r in results:
            assert r.value == (expected_sum, expected_sq)

    def test_cross_node_point_to_point_all_pairs(self):
        cluster = Cluster(presets.opteron_infinihost_pcie(), n_nodes=3)
        world = MPIWorld(cluster, ppn=1)

        def program(comm):
            # everyone sends to everyone (pairwise, deadlock-free order)
            got = {}
            for step in range(1, comm.size):
                dest = (comm.rank + step) % comm.size
                src = (comm.rank - step) % comm.size
                res = yield from comm.sendrecv(
                    dest, 50 + step, 4 * KB, source=src,
                    recvtag=50 + step, payload=f"{comm.rank}->{dest}",
                )
                got[src] = res[0]
            return got

        results = world.run(program)
        for r in results:
            for src, msg in r.value.items():
                assert msg == f"{src}->{r.rank}"

    def test_alltoallv_across_nodes(self):
        cluster = Cluster(presets.opteron_infinihost_pcie(), n_nodes=2)
        world = MPIWorld(cluster, ppn=3)  # 6 ranks, mixed intra/inter

        def program(comm):
            payloads = [f"{comm.rank}:{d}" for d in range(comm.size)]
            got = yield from comm.alltoallv([128] * comm.size,
                                            payloads=payloads)
            return got

        results = world.run(program)
        for r in results:
            assert r.value == [f"{s}:{r.rank}" for s in range(6)]
