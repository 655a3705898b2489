"""The Intel MPI Benchmarks *SendRecv* test (Fig 5).

    "we used the SendRecv test of the IMB and measured network bandwidth.
     We analysed two cases: One time we activated lazy deregistration and
     only measured the time for sending and receiving a message over
     InfiniBand.  Another time we deactivated this feature so that we
     additionally measured memory registration overhead for each test."
     (§5.1)

IMB SendRecv forms a ring: every rank sends to its right neighbour while
receiving from its left, so each rank moves ``2 × size`` bytes per
iteration and the reported bandwidth is ``2 × size / t`` (which is why
the paper's peak approaches 1750 MB/s on a ~940 MB/s link).

The benchmark reuses one pair of buffers across iterations, exactly like
IMB — this is what makes the lazy-deregistration cache effective after
the first iteration, and what makes deactivating it so expensive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.core.placement import BufferPlacer, PlacementPolicy
from repro.faults import FaultPlan
from repro.mpi.api import MPIConfig, MPIWorld
from repro.systems.machine import Cluster, MachineSpec


@dataclass
class IMBRow:
    """One message size's result."""

    size: int
    ticks_per_iter: float
    latency_us: float
    bandwidth_mb_s: float


@dataclass
class IMBResult:
    """A full SendRecv sweep under one configuration."""

    machine: str
    hugepages: bool
    lazy_dereg: bool
    driver_hugepage_aware: bool
    rows: List[IMBRow] = field(default_factory=list)

    def bandwidth_at(self, size: int) -> float:
        """Bandwidth for an exact message size."""
        for row in self.rows:
            if row.size == size:
                return row.bandwidth_mb_s
        raise KeyError(f"no row for size {size}")


def _check_sweep(sizes: List[int], iterations: int, warmup: int) -> None:
    """Refuse a sweep that cannot time anything, before a cluster is
    built: every size is measured over ``iterations >= 1`` timed rounds
    after ``warmup >= 0`` untimed ones."""
    if not sizes or min(sizes) < 1:
        raise ValueError("sizes must be positive")
    if iterations < 1:
        raise ValueError(f"iterations must be at least 1, got {iterations}")
    if warmup < 0:
        raise ValueError(f"warmup must be non-negative, got {warmup}")


class PingPongBenchmark:
    """IMB PingPong: one-way latency / unidirectional bandwidth.

    Not in the paper's figures, but the standard companion view of the
    same placement effects: half round-trip time per size, so the small-
    message regime (where §4's offsets and SGE costs live) is visible in
    microseconds rather than MB/s.
    """

    def __init__(self, spec_factory: Callable[[], MachineSpec]):
        self.spec_factory = spec_factory
        #: the cluster of the most recent :meth:`run` (checkpoint/audit
        #: harnesses read its final tick count and invariants)
        self.last_cluster: Optional[Cluster] = None

    def run(
        self,
        sizes: List[int],
        hugepages: bool,
        lazy_dereg: bool = True,
        driver_hugepage_aware: Optional[bool] = None,
        iterations: int = 4,
        warmup: int = 1,
        fault_plan: Optional[FaultPlan] = None,
    ) -> IMBResult:
        """One PingPong sweep on a fresh 2-node cluster."""
        _check_sweep(sizes, iterations, warmup)
        spec = self.spec_factory()
        if driver_hugepage_aware is not None:
            spec = spec.with_driver(driver_hugepage_aware)
        cluster = Cluster(spec, n_nodes=2, fault_plan=fault_plan)
        world = MPIWorld(cluster, ppn=1, config=MPIConfig(lazy_dereg=lazy_dereg))
        policy = PlacementPolicy.HUGE_PAGES if hugepages else PlacementPolicy.SMALL_PAGES
        max_size = max(sizes)
        timings = {}

        def program(comm):
            placer = BufferPlacer(comm.proc)
            buf = placer.place(max_size, policy, offset=0)
            other = 1 - comm.rank
            for size in sizes:
                for i in range(warmup + iterations):
                    if i == warmup and comm.rank == 0:
                        t0 = comm.kernel.now
                    if comm.rank == 0:
                        yield from comm.send(other, 42, size, addr=buf.addr)
                        yield from comm.recv(other, 43, addr=buf.addr)
                    else:
                        yield from comm.recv(0, 42, addr=buf.addr)
                        yield from comm.send(other, 43, size, addr=buf.addr)
                if comm.rank == 0:
                    # PingPong reports half the round trip
                    timings[size] = (comm.kernel.now - t0) / iterations / 2
            return None

        world.run(program)
        self.last_cluster = cluster
        clock = cluster.clock
        result = IMBResult(
            machine=spec.name,
            hugepages=hugepages,
            lazy_dereg=lazy_dereg,
            driver_hugepage_aware=spec.hugepage_aware_driver,
        )
        for size in sizes:
            ticks = timings[size]
            result.rows.append(
                IMBRow(
                    size=size,
                    ticks_per_iter=ticks,
                    latency_us=clock.ticks_to_us(int(ticks)),
                    bandwidth_mb_s=clock.bandwidth_mb_s(size, max(1, int(ticks))),
                )
            )
        return result


class SendRecvBenchmark:
    """Runs IMB SendRecv sweeps over fresh 2-node clusters."""

    def __init__(self, spec_factory: Callable[[], MachineSpec], n_nodes: int = 2):
        if n_nodes != 2:
            raise ValueError("IMB SendRecv reproduction runs on 2 nodes")
        self.spec_factory = spec_factory
        self.n_nodes = n_nodes
        #: the cluster of the most recent :meth:`run` (checkpoint/audit
        #: harnesses read its final tick count and invariants)
        self.last_cluster: Optional[Cluster] = None

    def run(
        self,
        sizes: List[int],
        hugepages: bool,
        lazy_dereg: bool,
        driver_hugepage_aware: Optional[bool] = None,
        iterations: int = 4,
        warmup: int = 1,
        fault_plan: Optional[FaultPlan] = None,
    ) -> IMBResult:
        """One sweep: a fresh cluster, one buffer placement, one
        registration-cache mode, all *sizes*."""
        _check_sweep(sizes, iterations, warmup)
        spec = self.spec_factory()
        if driver_hugepage_aware is not None:
            spec = spec.with_driver(driver_hugepage_aware)
        cluster = Cluster(spec, n_nodes=self.n_nodes, fault_plan=fault_plan)
        world = MPIWorld(cluster, ppn=1, config=MPIConfig(lazy_dereg=lazy_dereg))
        policy = PlacementPolicy.HUGE_PAGES if hugepages else PlacementPolicy.SMALL_PAGES
        max_size = max(sizes)
        timings = {}

        def program(comm):
            placer = BufferPlacer(comm.proc)
            send_buf = placer.place(max_size, policy, offset=0)
            recv_buf = placer.place(max_size, policy, offset=0)
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            for size in sizes:
                for i in range(warmup + iterations):
                    if i == warmup:
                        t0 = comm.kernel.now
                    yield from comm.sendrecv(
                        right, 77, size,
                        source=left, recvtag=77,
                        send_addr=send_buf.addr, recv_addr=recv_buf.addr,
                    )
                if comm.rank == 0:
                    timings[size] = (comm.kernel.now - t0) / iterations
            return None

        world.run(program)
        self.last_cluster = cluster
        clock = cluster.clock
        result = IMBResult(
            machine=spec.name,
            hugepages=hugepages,
            lazy_dereg=lazy_dereg,
            driver_hugepage_aware=spec.hugepage_aware_driver,
        )
        for size in sizes:
            ticks = timings[size]
            result.rows.append(
                IMBRow(
                    size=size,
                    ticks_per_iter=ticks,
                    latency_us=clock.ticks_to_us(int(ticks)),
                    # IMB SendRecv counts both directions
                    bandwidth_mb_s=clock.bandwidth_mb_s(2 * size, max(1, int(ticks))),
                )
            )
        return result
