"""Cross-layer integration tests: placement decisions propagating through
allocators, registration, the MPI protocols and timing."""

from repro.core import preload_hugepage_library
from repro.mpi import MPIConfig, MPIWorld
from repro.systems import Cluster, presets

KB = 1024
MB = 1024 * 1024


def make_world(ppn=1, n_nodes=2, **cfg):
    cluster = Cluster(presets.opteron_infinihost_pcie(), n_nodes=n_nodes)
    return cluster, MPIWorld(cluster, ppn=ppn, config=MPIConfig(**cfg))


class TestPreloadThroughMPI:
    def test_preloaded_ranks_register_hugepage_entries(self):
        """malloc -> hugepages -> registration uploads 2 MB entries."""
        cluster, world = make_world()

        def program(comm):
            preload_hugepage_library(comm.proc)
            buf = comm.proc.malloc(4 * MB)
            other = 1 - comm.rank
            yield from comm.sendrecv(other, 1, 2 * MB, source=other,
                                     recvtag=1, send_addr=buf,
                                     recv_addr=buf + 2 * MB)
            mrs = comm.endpoint.regcache._entries
            return [(mr.entry_page_size, mr.n_entries) for mr in mrs]

        results = world.run(program)
        for r in results:
            user_mrs = [e for e in r.value if e[0] == 2 * MB]
            assert user_mrs, "user buffer should register as 2 MB entries"
            assert all(n <= 2 for _, n in user_mrs)

    def test_library_frees_keep_cache_warm_libc_does_not(self):
        """The end-to-end churn mechanism behind the NAS comm gains."""

        def run(hugepages):
            cluster, world = make_world()

            def program(comm):
                if hugepages:
                    preload_hugepage_library(comm.proc)
                other = 1 - comm.rank
                for _ in range(4):
                    buf = comm.proc.malloc(2 * MB)
                    yield from comm.sendrecv(other, 2, 1 * MB, source=other,
                                             recvtag=2, send_addr=buf,
                                             recv_addr=buf + 1 * MB)
                    comm.proc.free(buf)
                return comm.endpoint.regcache.misses

            return max(r.value for r in world.run(program))

        assert run(hugepages=False) >= 4   # every iteration re-registers
        assert run(hugepages=True) <= 2    # warm after the first

    def test_hugepage_run_communicates_faster_without_cache(self):
        """Fig 5's headline, end to end through malloc + MPI."""

        def run(hugepages):
            cluster, world = make_world(lazy_dereg=False)
            out = {}

            def program(comm):
                if hugepages:
                    preload_hugepage_library(comm.proc)
                buf = comm.proc.malloc(8 * MB)
                other = 1 - comm.rank
                t0 = comm.kernel.now
                for _ in range(3):
                    yield from comm.sendrecv(other, 3, 4 * MB, source=other,
                                             recvtag=3, send_addr=buf,
                                             recv_addr=buf + 4 * MB)
                if comm.rank == 0:
                    out["ticks"] = comm.kernel.now - t0
                return None

            world.run(program)
            return out["ticks"]

        small, huge = run(False), run(True)
        assert huge < 0.92 * small


class TestProtocolBoundaries:
    def test_thresholds_choose_protocols(self):
        """Verify the paper's protocol map: eager <=8K, copy rendezvous
        to 16K, RDMA above — via the HCA message counters."""
        cluster, world = make_world()

        def program(comm):
            other = 1 - comm.rank
            buf = comm.proc.malloc(MB)
            if comm.rank == 0:
                yield from comm.send(other, 1, 4 * KB, addr=buf)       # eager
                yield from comm.send(other, 2, 12 * KB, addr=buf)      # copy rndv
                yield from comm.send(other, 3, 64 * KB, addr=buf)      # RDMA
            else:
                for tag in (1, 2, 3):
                    yield from comm.recv(0, tag, addr=buf)
            return None

        world.run(program)
        agg = cluster.aggregate_counters()
        # RDMA rendezvous generates exactly one rdma_write message; the
        # registration counters prove only the 64 KB message registered
        # user memory (2 acquires: send + recv side)
        assert agg.get("regcache.miss", 0) == 2

    def test_rendezvous_handshake_ordering(self):
        """Data cannot land before the CTS grants a target buffer."""
        cluster, world = make_world()
        events = []

        def program(comm):
            other = 1 - comm.rank
            buf = comm.proc.malloc(MB)
            if comm.rank == 0:
                yield from comm.send(other, 9, 256 * KB, addr=buf)
                events.append(("send_done", comm.kernel.now))
            else:
                yield from comm.compute_ticks(50_000)  # recv posted late
                events.append(("recv_posted", comm.kernel.now))
                yield from comm.recv(0, 9, addr=buf)
                events.append(("recv_done", comm.kernel.now))
            return None

        world.run(program)
        order = [name for name, _ in sorted(events, key=lambda e: e[1])]
        assert order.index("recv_posted") < order.index("send_done")


class TestCounterPlumbing:
    def test_papi_style_counters_aggregate(self):
        cluster, world = make_world(ppn=2)

        def program(comm):
            buf = comm.proc.malloc(8 * MB)
            cost = comm.proc.engine.stream(buf, 8 * MB)
            yield from comm.compute(cost)
            return None

        world.run(program)
        agg = cluster.aggregate_counters()
        assert agg.get("tlb.4k.miss", 0) >= 4 * 2048  # 4 ranks x 8 MB
        assert agg.get("prefetch.lines", 0) > 0

    def test_hca_counters(self):
        cluster, world = make_world()

        def program(comm):
            other = 1 - comm.rank
            buf = comm.proc.malloc(MB)
            yield from comm.sendrecv(other, 1, 100 * KB, source=other,
                                     recvtag=1, send_addr=buf,
                                     recv_addr=buf + 512 * KB)
            return None

        world.run(program)
        agg = cluster.aggregate_counters()
        assert agg.get("hca.tx_messages", 0) > 0
        assert agg.get("hca.rx_bytes", 0) >= 2 * 100 * KB
