"""MPI world, endpoints and the communicator API.

:class:`MPIWorld` launches rank programs (generator functions taking a
:class:`Communicator`) over a :class:`~repro.systems.machine.Cluster`
with block rank placement (the paper's "2 nodes with 4 processes each"
is ``ppn=4`` over a 2-node cluster: ranks 0-3 on node 0, 4-7 on node 1).

Transport selection per message:

========================  ==========================================
peer on the same node     shared-memory two-copy transport
size ≤ 8 KB               eager  (:mod:`repro.mpi.eager`)
8 KB < size ≤ 16 KB       copy rendezvous (:mod:`repro.mpi.eager`)
size > 16 KB              RDMA rendezvous (:mod:`repro.mpi.rendezvous`)
========================  ==========================================

Every communicator call is timed into the rank's mpiP-style profiler, so
Fig 6's communication/computation split is measured, not assumed.

Point-to-point messages start through :meth:`Endpoint.start_send` and
:meth:`Endpoint.start_recv`, which return one event carrying the result.
The protocol runs as a callback chain on an :class:`~repro.mpi.op.Op`,
with or without a fault plan, so a message spawns no process.  The
progress engines that drain the completion queues are callback chains
too.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Any, Callable, Dict, Generator, List,
                    Optional, Tuple)

from repro import trace
from repro.engine.core import Event, SimKernel
from repro.engine.resources import Channel, Store
from repro.faults import MPITransportError
from repro.ib.verbs import (
    SGE,
    CompletionQueue,
    ProtectionDomain,
    QueuePair,
    Record,
    RecvWR,
    WorkCompletion,
)
from repro.mpi import eager as eager_mod
from repro.mpi import rendezvous as rndv_mod
from repro.mpi.op import Join, Op
from repro.mpi.profiler import MPIProfiler
from repro.mpi.regcache import RegistrationCache
from repro.systems.machine import Cluster, Machine, OSProcess
from repro.util import WeakCall

if TYPE_CHECKING:
    from repro.mem.access import AccessCost


@dataclass(frozen=True)
class MPIConfig:
    """Message-layer tunables (MVAPICH2-era defaults)."""

    eager_threshold: int = 8 * 1024
    rdma_threshold: int = 16 * 1024
    lazy_dereg: bool = True
    regcache_capacity: Optional[int] = None
    eager_buf_bytes: int = 16 * 1024
    prepost_depth: int = 8
    bounce_buffers: int = 16
    intra_copy_ns_per_byte: float = 0.25
    intra_latency_ns: float = 600.0
    #: rendezvous data movement: "write" (the era's MVAPICH2 scheme) or
    #: "read" (receiver-pulls; one less control message)
    rndv_protocol: str = "write"

    def __post_init__(self) -> None:
        if self.eager_threshold > self.eager_buf_bytes:
            raise ValueError("eager threshold exceeds bounce buffer size")
        if self.rdma_threshold < self.eager_threshold:
            raise ValueError("RDMA threshold below eager threshold")
        if self.rndv_protocol not in ("write", "read"):
            raise ValueError(f"unknown rendezvous protocol "
                             f"{self.rndv_protocol!r}")


class Envelope(Record):
    """Protocol header riding on every wire/intra message; ``kind`` is
    one of eager, rts, cts, fin and rdat."""

    __slots__ = ("kind", "src", "dst", "tag", "size", "payload", "rndv",
                 "remote_addr", "rkey")
    _FIELDS = __slots__

    def __init__(self, kind: str, src: int, dst: int, tag: int, size: int,
                 payload: Any = None, rndv: int = 0, remote_addr: int = 0,
                 rkey: int = 0):
        self.kind = kind
        self.src = src
        self.dst = dst
        self.tag = tag
        self.size = size
        self.payload = payload
        self.rndv = rndv
        self.remote_addr = remote_addr
        self.rkey = rkey


class Endpoint:
    """One rank's transport state (see module docstring).

    The world owns its endpoints, and an endpoint holds no link back to
    the world: it keeps the placement it needs (``ppn``, ``size``) and
    the match channels of every rank, for the intra-node transport.
    """

    CTRL_BYTES = 64

    def __init__(self, world: "MPIWorld", rank: int, proc: OSProcess,
                 machine: Machine, config: MPIConfig,
                 match_channels: List[Channel]):
        self.rank = rank
        self.ppn = world.ppn
        self.size = world.size
        self.proc = proc
        self.config = config
        self.machine = machine
        self.hca = machine.hca
        self.kernel: SimKernel = world.kernel
        #: trace tracks of this rank's sending and receiving halves
        self.tx_track = f"rank{rank}.tx"
        self.rx_track = f"rank{rank}.rx"
        self.pd = ProtectionDomain.fresh()
        self.send_cq = CompletionQueue(self.kernel)
        self.recv_cq = CompletionQueue(self.kernel)
        self.qps: Dict[int, QueuePair] = {}  # peer rank -> QP
        #: every rank's match channel, indexed by rank (shared)
        self._match_channels = match_channels
        self.match_channel = match_channels[rank]
        self.cts_channel = Channel(self.kernel)
        self.fin_channel = Channel(self.kernel)
        self.bounce_pool = Store(self.kernel)
        self.regcache = RegistrationCache(
            self.hca,
            proc.aspace,
            self.pd,
            enabled=config.lazy_dereg,
            capacity_bytes=config.regcache_capacity,
            counters=proc.counters,
            owner=f"rank{rank}",
        )
        # the address space keeps the cache: a free after the world is
        # gone still invalidates (the cache holds the space weakly)
        proc.aspace.unmap_hooks.append(self.regcache.invalidate_range)
        # the CQs are reachable from this endpoint: what the progress
        # engines park there holds it weakly
        self._recv_poll = self.hca.poller(WeakCall(self._on_recv_completion))
        self._send_poll = self.hca.poller(WeakCall(self._on_send_completion))
        self._wr_ids = itertools.count(1)
        self._rndv_ids = itertools.count(1)
        #: send WR id -> the continuation its completion is handed to
        self._send_waiters: Dict[int, Callable[[WorkCompletion], None]] = {}
        #: receive WR id -> the QP and SGE list of its bounce buffer
        self._recv_slots: Dict[int, Tuple[QueuePair, List[SGE]]] = {}
        self._ready = False

    # -- identity helpers ------------------------------------------------------
    def node_of(self, rank: int) -> int:
        """Node index hosting *rank*."""
        return block_node_of(rank, self.ppn, self.size)

    def is_local(self, rank: int) -> bool:
        """True when *rank* lives on this endpoint's node."""
        return self.node_of(rank) == self.node_of(self.rank)

    def qp_for(self, dest: int) -> QueuePair:
        """The QP towards remote rank *dest*."""
        qp = self.qps.get(dest)
        if qp is None:
            raise ValueError(f"rank {self.rank} has no QP to rank {dest}")
        return qp

    def make_envelope(self, kind: str, dest: int, tag: int, size: int,
                      payload: Any = None, rndv: int = 0,
                      remote_addr: int = 0, rkey: int = 0) -> Envelope:
        """Build a protocol header originating at this rank."""
        return Envelope(kind, self.rank, dest, tag, size, payload, rndv,
                        remote_addr, rkey)

    def next_wr_id(self) -> int:
        return next(self._wr_ids)

    def next_rndv_id(self) -> int:
        # namespaced per rank so concurrent rendezvous cannot collide
        return (self.rank << 32) | next(self._rndv_ids)

    def on_send_completion(self, wr_id: int,
                           callback: Callable[[WorkCompletion], None]) -> None:
        """Hand the completion of send WR *wr_id* to *callback(wc)*.

        Register after the post returns (the completion is always a
        later step), so a post that raises leaves no waiter behind.
        """
        self._send_waiters[wr_id] = callback

    def completion_error(self, wc: WorkCompletion) -> MPITransportError:
        """The error an error CQE for a send WR raises."""
        return MPITransportError(
            f"rank {self.rank}: send WR {wc.wr_id} "
            f"({wc.byte_len} B, {wc.opcode}) failed: {wc.status}"
        )

    # -- setup -------------------------------------------------------------------
    def setup(self) -> Generator:
        """Allocate and register bounce buffers, pre-post receives, start
        progress engines.  Timed (runs before the profiled window)."""
        span = trace.begin("mpi.setup", track=self.tx_track, rank=self.rank)
        try:
            cfg = self.config
            n_qps = max(1, len(self.qps))
            n_recv_bufs = cfg.prepost_depth * n_qps
            total = (cfg.bounce_buffers + n_recv_bufs) * cfg.eager_buf_bytes
            slab = self.proc.malloc(total)
            # registered through the regcache's retry policy so a transient
            # driver failure during setup is retried, not fatal
            registered = self.kernel.event()
            self.regcache.register_then(slab, total, registered.succeed,
                                        registered.fail)
            mr = yield registered
            cursor = slab
            for _ in range(cfg.bounce_buffers):
                self.bounce_pool.put_nowait((cursor, mr))
                cursor += cfg.eager_buf_bytes
            for qp in self.qps.values():
                for _ in range(cfg.prepost_depth):
                    sges = [SGE(cursor, cfg.eager_buf_bytes, mr.lkey)]
                    yield from self.hca.post_recv(qp, self._eager_recv_wr(qp, sges))
                    cursor += cfg.eager_buf_bytes
            self._recv_progress()
            self._send_progress()
            self._ready = True
        finally:
            trace.end(span)

    def _eager_recv_wr(self, qp: QueuePair, sges: List[SGE]) -> RecvWR:
        """A receive WR for one eager bounce buffer, with its slot."""
        wr_id = self.next_wr_id()
        self._recv_slots[wr_id] = (qp, sges)
        return RecvWR(wr_id, sges)

    # -- progress engines -------------------------------------------------------------
    #
    # Callback chains: each engine polls its CQ (one poll cost per CQE,
    # one CQE at a time), handles the entry, and only then polls again.

    def _recv_progress(self) -> None:
        self.recv_cq.store.get_then(self._recv_poll)

    def _on_recv_completion(self, wc: WorkCompletion) -> None:
        qp, sges = self._recv_slots.pop(wc.wr_id)
        # repost the bounce (the engine polls again once it is queued)
        # before the envelope wakes a receiver, which then runs after it
        self.hca.post_recv_then(qp, self._eager_recv_wr(qp, sges),
                                self._recv_progress)
        self._dispatch(wc.payload)

    def _send_progress(self) -> None:
        self.send_cq.store.get_then(self._send_poll)

    def _on_send_completion(self, wc: WorkCompletion) -> None:
        waiter = self._send_waiters.pop(wc.wr_id, None)
        if waiter is None:
            raise RuntimeError(f"completion for unknown WR {wc.wr_id}")
        # poll the next CQE before the woken sender carries on
        self._send_progress()
        waiter(wc)

    def _dispatch(self, env: Envelope) -> None:
        if env.kind in ("eager", "rts", "rdat"):
            self.match_channel.send(env)
        elif env.kind == "cts":
            self.cts_channel.send(env)
        elif env.kind == "fin":
            self.fin_channel.send(env)
        else:  # pragma: no cover - defensive
            raise RuntimeError(f"unknown envelope kind {env.kind!r}")

    # -- point-to-point: send ------------------------------------------------------------
    def start_send(self, dest: int, tag: int, size: int,
                   addr: Optional[int] = None, payload: Any = None) -> Event:
        """Start a standard-mode send; returns an event that fires when
        it completes (or fails with the send's error)."""
        op = Op(self)
        op.call(self._send_then, op, dest, tag, size, addr, payload)
        return op.done

    def _send_then(self, op: Op, dest: int, tag: int, size: int,
                   addr: Optional[int], payload: Any) -> None:
        """Run a send by transport (see the module docstring)."""
        self._check_send(dest, size)
        then = op.finish
        if self.is_local(dest):
            cfg = self.config
            ns = cfg.intra_latency_ns + size * cfg.intra_copy_ns_per_byte

            def _delivered() -> None:
                env = self.make_envelope("eager", dest, tag, size, payload=payload)
                self._match_channels[dest].send(env)
                then()

            op.after(self.machine.clock.ns_to_ticks(ns), _delivered)
        elif size <= self.config.eager_threshold:
            eager_mod.eager_send_then(op, dest, tag, size, addr, payload, then)
        elif size <= self.config.rdma_threshold:
            eager_mod.copy_rendezvous_send_then(
                op, dest, tag, size, addr, payload, then
            )
        elif self.config.rndv_protocol == "read":
            rndv_mod.rdma_read_rendezvous_send_then(
                op, dest, tag, size, addr, payload, then
            )
        else:
            rndv_mod.rdma_rendezvous_send_then(
                op, dest, tag, size, addr, payload, then
            )

    def _check_send(self, dest: int, size: int) -> None:
        if size < 0:
            raise ValueError(f"negative message size {size}")
        if dest == self.rank:
            raise ValueError("send to self is not supported")

    # -- point-to-point: recv -------------------------------------------------------------
    def start_recv(self, source: Optional[int] = None, tag: Optional[int] = None,
                   addr: Optional[int] = None) -> Event:
        """Post a receive; returns an event that fires with
        ``(payload, size, src, tag)``.

        *addr* is the user receive buffer — required for messages above
        the RDMA threshold (the adapter must have a target).
        """
        op = Op(self)
        self._post_recv_then(op, source, tag, addr)
        return op.done

    def start_sendrecv(self, dest: int, sendtag: int, size: int,
                       source: Optional[int] = None, recvtag: Optional[int] = None,
                       send_addr: Optional[int] = None,
                       recv_addr: Optional[int] = None,
                       payload: Any = None) -> Event:
        """Start a send and a receive together; returns an event firing
        with ``[None, recv_result]`` once both completed (the value of an
        ``AllOf`` over :meth:`start_send` and :meth:`start_recv`)."""
        join = Join(self, 2)
        sop = Op(self, join.notifier(0))
        sop.call(self._send_then, sop, dest, sendtag, size, send_addr, payload)
        rop = Op(self, join.notifier(1))
        self._post_recv_then(rop, source, recvtag, recv_addr)
        return join.done

    def _post_recv_then(self, op: Op, source: Optional[int], tag: Optional[int],
                        addr: Optional[int]) -> None:
        self.match_channel.receive_then(
            lambda env: op.call(self._recv_then, op, env, addr),
            _matcher(source, tag),
        )

    def _recv_then(self, op: Op, env: Envelope, addr: Optional[int]) -> None:
        """Run a receive by transport once *env* matched."""
        def then(payload: Any) -> None:
            op.finish((payload, env.size, env.src, env.tag))

        if env.kind == "eager":
            if self.is_local(env.src):
                ns = env.size * self.config.intra_copy_ns_per_byte
                op.after(self.machine.clock.ns_to_ticks(ns), then, env.payload)
            else:
                eager_mod.eager_recv_copy_out_then(op, env, addr, then)
        elif env.size <= self.config.rdma_threshold:
            eager_mod.copy_rendezvous_recv_then(op, env, addr, then)
        elif self.config.rndv_protocol == "read":
            rndv_mod.rdma_read_rendezvous_recv_then(op, env, addr, then)
        else:
            rndv_mod.rdma_rendezvous_recv_then(op, env, addr, then)


def block_node_of(rank: int, ppn: int, size: int) -> int:
    """Block placement: ranks 0..ppn-1 on node 0, etc."""
    if not 0 <= rank < size:
        raise ValueError(f"rank {rank} out of range")
    return rank // ppn


def _matcher(source: Optional[int], tag: Optional[int]) -> Callable[[Envelope], bool]:
    """The match predicate of a receive posted for (*source*, *tag*)."""
    def matches(env: Envelope) -> bool:
        if env.kind not in ("eager", "rts"):
            return False
        if source is not None and env.src != source:
            return False
        if tag is not None and env.tag != tag:
            return False
        return True

    return matches


@dataclass
class RankResult:
    """Outcome of one rank's program."""

    rank: int
    value: Any
    profiler: MPIProfiler
    app_ticks: int


class Communicator:
    """The per-rank MPI handle handed to rank programs."""

    def __init__(self, endpoint: Endpoint):
        self.endpoint = endpoint
        self.kernel = endpoint.kernel
        #: number of ranks in the world
        self.size = endpoint.size
        self.profiler = MPIProfiler(endpoint.rank)

    # -- identity -----------------------------------------------------------
    @property
    def rank(self) -> int:
        """This rank's index."""
        return self.endpoint.rank

    @property
    def proc(self) -> OSProcess:
        """The rank's OS process (allocator, address space, engine)."""
        return self.endpoint.proc

    # -- timed wrappers ----------------------------------------------------------
    def _timed(self, name: str, gen: Generator, nbytes: int = 0) -> Generator:
        t0 = self.kernel.now
        result = yield from gen
        self.profiler.record(name, self.kernel.now - t0, nbytes)
        return result

    def send(self, dest: int, tag: int, size: int,
             addr: Optional[int] = None, payload: Any = None) -> Generator:
        """MPI_Send."""
        t0 = self.kernel.now
        yield self.endpoint.start_send(dest, tag, size, addr, payload)
        self.profiler.record("MPI_Send", self.kernel.now - t0, size)

    def recv(self, source: Optional[int] = None, tag: Optional[int] = None,
             addr: Optional[int] = None) -> Generator:
        """MPI_Recv; returns ``(payload, size, src, tag)``."""
        t0 = self.kernel.now
        result = yield self.endpoint.start_recv(source, tag, addr)
        self.profiler.record("MPI_Recv", self.kernel.now - t0)
        return result

    def sendrecv(self, dest: int, sendtag: int, size: int,
                 source: Optional[int] = None, recvtag: Optional[int] = None,
                 send_addr: Optional[int] = None, recv_addr: Optional[int] = None,
                 payload: Any = None) -> Generator:
        """MPI_Sendrecv: send and receive concurrently."""
        t0 = self.kernel.now
        results = yield self.endpoint.start_sendrecv(
            dest, sendtag, size, source, recvtag, send_addr, recv_addr, payload
        )
        self.profiler.record("MPI_Sendrecv", self.kernel.now - t0, size)
        return results[1]

    # -- computation -----------------------------------------------------------------
    def compute_ticks(self, ticks: int) -> Generator:
        """Spend *ticks* of pure computation time."""
        if ticks < 0:
            raise ValueError(f"negative compute time {ticks}")
        yield self.kernel.timeout(ticks)

    def compute(self, cost: AccessCost) -> Generator:
        """Spend an :class:`~repro.mem.access.AccessCost` of computation."""
        yield self.kernel.timeout(cost.ticks)

    # -- collectives (implemented in repro.mpi.collectives) -----------------------------
    def barrier(self) -> Generator:
        """MPI_Barrier."""
        from repro.mpi.collectives import barrier

        return self._timed("MPI_Barrier", barrier(self))

    def bcast(self, root: int, size: int, payload: Any = None,
              addr: Optional[int] = None) -> Generator:
        """MPI_Bcast; returns the payload at every rank."""
        from repro.mpi.collectives import bcast

        return self._timed("MPI_Bcast", bcast(self, root, size, payload, addr), size)

    def allreduce(self, size: int, value: Any = None,
                  op: Callable[[Any, Any], Any] = None,
                  addr: Optional[int] = None) -> Generator:
        """MPI_Allreduce; returns the combined value at every rank."""
        from repro.mpi.collectives import allreduce

        return self._timed(
            "MPI_Allreduce", allreduce(self, size, value, op, addr), size
        )

    def reduce(self, root: int, size: int, value: Any = None,
               op: Callable[[Any, Any], Any] = None) -> Generator:
        """MPI_Reduce; returns the combined value at the root, None elsewhere."""
        from repro.mpi.collectives import reduce as reduce_

        return self._timed("MPI_Reduce", reduce_(self, root, size, value, op), size)

    def alltoallv(self, sizes: List[int], payloads: Optional[List[Any]] = None,
                  addrs: Optional[List[Optional[int]]] = None,
                  recv_addrs: Optional[List[Optional[int]]] = None) -> Generator:
        """MPI_Alltoallv; returns the list of received payloads by rank."""
        from repro.mpi.collectives import alltoallv

        return self._timed(
            "MPI_Alltoallv",
            alltoallv(self, sizes, payloads, addrs, recv_addrs),
            sum(sizes),
        )

    def allgather(self, size: int, value: Any = None,
                  addr: Optional[int] = None) -> Generator:
        """MPI_Allgather; returns the list of every rank's value."""
        from repro.mpi.collectives import allgather

        return self._timed("MPI_Allgather", allgather(self, size, value, addr), size)


class MPIWorld:
    """Rank placement, endpoint wiring and program execution."""

    def __init__(self, cluster: Cluster, ppn: int,
                 config: Optional[MPIConfig] = None):
        if ppn < 1:
            raise ValueError("need at least one process per node")
        self.cluster = cluster
        self.kernel = cluster.kernel
        self.ppn = ppn
        self.size = ppn * len(cluster.nodes)
        self.config = config if config is not None else MPIConfig()
        channels = [Channel(self.kernel) for _ in range(self.size)]
        self._endpoints: List[Endpoint] = []
        for rank in range(self.size):
            node = cluster.nodes[self.node_of(rank)]
            proc = node.new_process(name=f"rank{rank}")
            self._endpoints.append(
                Endpoint(self, rank, proc, node, self.config, channels))
        self._wire_qps()
        self._comms = [Communicator(ep) for ep in self._endpoints]

    # -- placement -------------------------------------------------------------
    def node_of(self, rank: int) -> int:
        """Block placement: ranks 0..ppn-1 on node 0, etc."""
        return block_node_of(rank, self.ppn, self.size)

    def endpoint(self, rank: int) -> Endpoint:
        """The endpoint of *rank*."""
        return self._endpoints[rank]

    def communicator(self, rank: int) -> Communicator:
        """The communicator of *rank*."""
        return self._comms[rank]

    def _wire_qps(self) -> None:
        from repro.ib.hca import HCA

        for a in range(self.size):
            for b in range(a + 1, self.size):
                if self.node_of(a) == self.node_of(b):
                    continue
                ep_a, ep_b = self._endpoints[a], self._endpoints[b]
                qp_a = ep_a.machine.hca.create_qp(ep_a.pd, ep_a.send_cq, ep_a.recv_cq)
                qp_b = ep_b.machine.hca.create_qp(ep_b.pd, ep_b.send_cq, ep_b.recv_cq)
                HCA.connect_pair(qp_a, ep_a.machine.hca, qp_b, ep_b.machine.hca)
                ep_a.qps[b] = qp_a
                ep_b.qps[a] = qp_b

    # -- execution -----------------------------------------------------------------
    def run(self, program: Callable[[Communicator], Generator],
            until: Optional[int] = None) -> List[RankResult]:
        """Run *program* on every rank; returns per-rank results.

        The profiled window excludes endpoint setup (bounce registration)
        and is closed by a final barrier, like an mpiP report.
        """
        procs = []
        for comm in self._comms:
            procs.append(self.kernel.process(self._rank_main(comm, program),
                                             name=f"rank{comm.rank}"))
        self.kernel.run(until=until)
        results = []
        for comm, proc in zip(self._comms, procs):
            if proc.is_alive:
                raise RuntimeError(
                    f"rank {comm.rank} did not finish (deadlock or until= hit)"
                )
            results.append(
                RankResult(
                    rank=comm.rank,
                    value=proc.value,
                    profiler=comm.profiler,
                    app_ticks=comm.profiler.app_ticks,
                )
            )
        return results

    def _rank_main(self, comm: Communicator,
                   program: Callable[[Communicator], Generator]) -> Generator:
        from repro.mpi.collectives import barrier

        yield from comm.endpoint.setup()
        yield from barrier(comm)
        comm.profiler.app_started(self.kernel.now)
        value = yield from program(comm)
        yield from barrier(comm)
        comm.profiler.app_ended(self.kernel.now)
        return value
