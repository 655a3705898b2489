"""The host channel adapter: work-request processing as DES processes.

The §4 execution flow, step by step:

    "1. The consumer posts a send or receive work request.
     2. The network adapter transfers the specified data to the
        communication partner.
     3. After completion the adapter generates a completion queue entry.
     4. The consumer is notified about work completion by polling the
        completion queue or by an interrupt."

Step 1 is CPU work (:meth:`HCA.post_send` — WQE build + doorbell; the
paper measures it as a near-constant 230–950 TBR ticks).  Steps 2-3 are
the adapter pipeline (:meth:`HCA._handle_send`): WQE fetch over the bus,
per-SGE ATT translation and DMA gather, wire transfer, remote scatter,
CQE write and the RC acknowledgement.  Step 4 is :meth:`HCA.
wait_completion`.

Scatter/gather economics (§4): the per-WQE costs (doorbell, WQE fetch,
pipeline occupancy, completion) are paid once regardless of SGE count,
while each extra SGE only adds a small descriptor-parse + DMA-engine
cost — so 4 small SGEs cost ~14 % more than one, and 128 SGEs ~3× one,
as the paper measures in Fig 3.

Bus occupancy is modelled with real DES resources: the gather path holds
the bus read channel, the scatter path the write channel.  On a
half-duplex bus (PCI-X) these are the same resource, which is how ATT
stalls become visible in bandwidth exactly as §5.1 describes for the
Xeon system.

Event folding
-------------

On the clean path (no fault plan, no tracer, ``fastpath.fold_enabled()``)
the per-message generator processes above are replaced by equivalent
*callback chains*: the same bus holds at the same ticks, the same ATT
walks at the same points, the same delivery and completion instants —
but as a handful of scheduled callbacks instead of a spawned process
with a resume per ``yield``.  A folded send costs 3 kernel events where
the process form costs ~8; a folded receive costs 3 where the process
form costs ~7.  Uncontended resource grants are taken synchronously
(:meth:`repro.engine.resources.Resource.try_acquire`) and fire-and-
forget queue puts skip their acknowledgement event
(:meth:`repro.engine.resources.Store.put_nowait`).

Folding never changes a cost formula, so it is active on BOTH costing
paths and under the sanitizer (the sanitize hooks are synchronous calls
and run at the same model points).  Fault plans pin the process
machinery per-HCA (retransmission needs the watchdog/idempotence
bookkeeping interleaved with the pipeline), an active tracer pins it
per-message (the ``ib.tx``/``ib.rx`` spans wrap generator bodies), and
``REPRO_NO_FOLD=1`` / :func:`repro.fastpath.set_fold` pins it globally
so equivalence tests can diff the two machineries.

The MPI layer above is folded the same way (:mod:`repro.mpi.fold`): it
posts, registers, polls and deregisters through the callback forms
:meth:`HCA.post_send_then`, :meth:`HCA.post_recv_then`,
:meth:`HCA.poll_then`, :meth:`HCA.register_then` and
:meth:`HCA.deregister_then`, which charge the same costs and open the
same spans as their generator counterparts, and the send and receive
queues hand a WR straight to a waiting callback.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import (Any, Callable, Dict, Generator, Optional, Sequence,
                    Set, Tuple)

from repro import fastpath, sanitize, trace
from repro.analysis.counters import CounterSet
from repro.engine.clock import TickClock
from repro.engine.core import SimKernel
from repro.faults import FaultInjector
from repro.ib.att import ATTCache
from repro.ib.bus import BusModel
from repro.ib.link import IBLink
from repro.ib.registration import RegistrationEngine
from repro.ib.verbs import (
    SGE,
    CompletionQueue,
    IBVerbsError,
    MemoryRegion,
    ProtectionDomain,
    QueuePair,
    RecvWR,
    SendWR,
    WorkCompletion,
)
from repro.mem.address_space import AddressSpace

_seq = itertools.count(1)


@dataclass(frozen=True)
class HCAConfig:
    """Adapter-side fixed costs (ns)."""

    #: CPU cost to build a WQE (descriptor assembly in the send path)
    post_base_ns: float = 700.0
    #: CPU cost per SGE appended to a WQE
    post_per_sge_ns: float = 16.0
    #: DMA-engine cost per SGE beyond the first (descriptor parse + new
    #: gather stream; the engine fetches buffers concurrently, §4)
    sge_extra_ns: float = 60.0
    #: beyond this many SGEs the DMA engine's descriptor pipeline is full
    #: and the marginal per-SGE cost drops (the paper's observation that
    #: 128 SGEs cost only ~3x one SGE: "this overhead does not increase
    #: linearly")
    sge_pipeline_depth: int = 4
    #: marginal per-SGE cost once the descriptor pipeline is primed
    sge_extra_pipelined_ns: float = 10.0
    #: fetching/consuming one pre-posted receive WQE
    recv_wqe_ns: float = 160.0
    #: writing one CQE to host memory
    cqe_write_ns: float = 170.0
    #: CPU cost of one completion-queue poll
    poll_ns: float = 190.0
    #: fixed adapter pipeline cost per processed WQE
    process_ns: float = 380.0


@dataclass
class _Packet:
    """What travels on the wire between two HCAs.

    ``stream_ns`` is how long the message's data keeps streaming after
    the first byte arrives — the slower of the sender's gather and the
    wire serialization.  The receiver overlaps its scatter DMA with that
    stream, so its bus hold is ``max(stream_ns, scatter_ns)``; this is
    the mechanism that hides ATT stalls inside bus/link slack (Opteron/
    PCIe) but exposes them when the bus is the bottleneck (Xeon/PCI-X).
    """

    kind: str  # "send" | "rdma_write" | "ack"
    src_qp: int
    dst_qp: int
    seq: int
    wr_id: int
    nbytes: int
    payload: Any = None
    remote_addr: int = 0
    rkey: int = 0
    status: str = "success"
    stream_ns: float = 0.0
    #: set by fault injection: the payload fails the receiver's ICRC
    #: check and the whole message is discarded on arrival
    corrupt: bool = False


class Wire:
    """A point-to-point cable between two HCAs (both directions)."""

    def __init__(self, kernel: SimKernel):
        self.kernel = kernel
        self._ends: Dict[int, "HCA"] = {}
        #: id(sender) -> the HCA at the other end, resolved at attach
        self._far: Dict[int, "HCA"] = {}

    def attach(self, hca: "HCA") -> None:
        """Connect one HCA end."""
        if len(self._ends) >= 2 and id(hca) not in self._ends:
            raise IBVerbsError("a wire has exactly two ends")
        self._ends[id(hca)] = hca
        self._far = {
            key: other
            for key in self._ends
            for other_key, other in self._ends.items()
            if other_key != key
        }

    def deliver(self, sender: "HCA", packet: _Packet, delay_ticks: int) -> None:
        """Schedule *packet* to arrive at the far end after *delay_ticks*.

        Arrival is a single scheduled callback, not a spawned process: a
        cable has no state to model between launch and landing, and one
        heap entry per packet instead of three (process start, timeout,
        process exit) is a measurable share of the event budget.
        """
        dest = self._far.get(id(sender))
        if dest is None:
            raise IBVerbsError("wire has no far end attached")

        def _arrive(_ev, dest=dest, packet=packet, wire=self):
            dest._on_arrival(packet, wire)

        self.kernel.call_after(delay_ticks, _arrive)


class HCA:
    """One adapter instance (see module docstring)."""

    def __init__(
        self,
        kernel: SimKernel,
        clock: TickClock,
        bus: BusModel,
        link: IBLink,
        att: ATTCache,
        reg_engine: RegistrationEngine,
        config: Optional[HCAConfig] = None,
        counters: Optional[CounterSet] = None,
        name: str = "hca",
        faults: Optional[FaultInjector] = None,
    ):
        self.kernel = kernel
        self.clock = clock
        self.bus = bus
        self.link = link
        self.att = att
        self.reg = reg_engine
        self.config = config if config is not None else HCAConfig()
        self.counters = counters if counters is not None else CounterSet()
        self.name = name
        #: fault injector, or None.  Kept None unless the plan is active
        #: so every fault hook below reduces to one ``is not None`` test
        #: on the fault-free path — fault machinery costs nothing off.
        self.faults = faults if (faults is not None and faults.active) else None
        #: inbound send/rdma_write seqs being processed right now (the
        #: window where a sender's retransmission means RNR, not loss)
        self._rx_inflight: Set[int] = set()
        #: inbound seqs fully processed, mapped to their ack status so a
        #: duplicate retransmission is re-acked, never re-executed
        self._rx_seen: Dict[int, str] = {}
        self._wires: Dict[int, Wire] = {}
        self._qps: Dict[int, QueuePair] = {}
        self._mrs_by_lkey: Dict[int, MemoryRegion] = {}
        self._mrs_by_rkey: Dict[int, MemoryRegion] = {}
        self._outstanding: Dict[int, Tuple[QueuePair, SendWR]] = {}
        #: payload objects landed by inbound RDMA writes, keyed by
        #: ``(rkey, target vaddr)`` — ranks sharing this HCA have separate
        #: address spaces whose layouts may coincide, so the vaddr alone
        #: is ambiguous; the rkey pins the region (drained by the
        #: rendezvous receiver)
        self.rdma_landed: Dict[tuple, Any] = {}
        #: payload objects a local process has exposed for remote RDMA
        #: reads, keyed by ``(rkey, vaddr)`` (set by the read-rendezvous
        #: sender, fetched by inbound read requests)
        self.rdma_exposed: Dict[tuple, Any] = {}

    # -- wiring -------------------------------------------------------------
    def attach_wire(self, peer: "HCA", wire: Wire) -> None:
        """Plug this HCA into a cable leading to *peer*."""
        wire.attach(self)
        self._wires[id(peer)] = wire

    def wire_to(self, peer: "HCA") -> Wire:
        """The cable towards *peer* (cables are created by Machine/Cluster
        wiring, see :func:`connect_hcas`)."""
        wire = self._wires.get(id(peer))
        if wire is None:
            raise IBVerbsError(f"{self.name} has no wire to {peer.name}")
        return wire

    @staticmethod
    def connect_pair(qp_a: QueuePair, hca_a: "HCA", qp_b: QueuePair, hca_b: "HCA") -> None:
        """Bring two QPs to RTS pointing at each other (the HCAs must
        already share a wire, see :func:`connect_hcas`)."""
        qp_a.connect(hca_b, qp_b.qp_num)
        qp_b.connect(hca_a, qp_a.qp_num)

    # -- memory registration ----------------------------------------------------
    def register_memory(
        self, aspace: AddressSpace, pd: ProtectionDomain, vaddr: int, length: int
    ) -> Generator:
        """Register a buffer (a timed CPU+bus operation).

        Use as ``mr = yield from hca.register_memory(...)``.
        """
        span = trace.begin("ib.mr.register", track=self.name, bytes=length)
        try:
            mr, ns = self.reg.register(aspace, pd, vaddr, length)
            self._mrs_by_lkey[mr.lkey] = mr
            self._mrs_by_rkey[mr.rkey] = mr
            yield self.kernel.timeout(self.clock.ns_to_ticks(ns))
            return mr
        finally:
            trace.end(span)

    def register_then(
        self, aspace: AddressSpace, pd: ProtectionDomain, vaddr: int,
        length: int, then: Callable[[MemoryRegion], None],
    ) -> None:
        """Callback form of :meth:`register_memory`: the same cost and
        span; *then(mr)* runs when the registration completes.  A failed
        registration raises here, synchronously."""
        span = trace.begin("ib.mr.register", track=self.name, bytes=length)
        try:
            mr, ns = self.reg.register(aspace, pd, vaddr, length)
        except BaseException:
            trace.end(span)
            raise
        self._mrs_by_lkey[mr.lkey] = mr
        self._mrs_by_rkey[mr.rkey] = mr

        def _registered(_ev):
            trace.end(span)
            then(mr)

        self.kernel.call_after(self.clock.ns_to_ticks(ns), _registered)

    def deregister_memory(self, aspace: AddressSpace, mr: MemoryRegion) -> Generator:
        """Deregister *mr* (timed)."""
        span = trace.begin("ib.mr.deregister", track=self.name, bytes=mr.length)
        try:
            ns = self.reg.deregister(aspace, mr)
            self._mrs_by_lkey.pop(mr.lkey, None)
            self._mrs_by_rkey.pop(mr.rkey, None)
            yield self.kernel.timeout(self.clock.ns_to_ticks(ns))
        finally:
            trace.end(span)

    def deregister_then(self, aspace: AddressSpace, mr: MemoryRegion,
                        then: Callable[[], None]) -> None:
        """Callback form of :meth:`deregister_memory`; *then()* runs
        when the deregistration completes."""
        span = trace.begin("ib.mr.deregister", track=self.name, bytes=mr.length)
        try:
            ns = self.reg.deregister(aspace, mr)
        except BaseException:
            trace.end(span)
            raise
        self._mrs_by_lkey.pop(mr.lkey, None)
        self._mrs_by_rkey.pop(mr.rkey, None)

        def _deregistered(_ev):
            trace.end(span)
            then()

        self.kernel.call_after(self.clock.ns_to_ticks(ns), _deregistered)

    def lookup_mr(self, lkey: int) -> MemoryRegion:
        """The MR registered under *lkey*."""
        mr = self._mrs_by_lkey.get(lkey)
        san = sanitize._active
        if san is not None and san.mr:
            # distinguishes a deregistered key from a never-valid one
            # before the generic verbs error below
            san.check_lkey(mr, lkey, "lookup_mr")
        if mr is None or not mr.registered:
            raise IBVerbsError(f"invalid lkey {lkey:#x}")
        return mr

    # -- QP lifecycle --------------------------------------------------------------
    def create_qp(
        self,
        pd: ProtectionDomain,
        send_cq: CompletionQueue,
        recv_cq: CompletionQueue,
        max_sge: int = 128,
        max_send_wr: int = 128,
    ) -> QueuePair:
        """Create a QP and start its send engine."""
        qp = QueuePair(self.kernel, pd, send_cq, recv_cq,
                       max_sge=max_sge, max_send_wr=max_send_wr)
        if self.faults is not None:
            plan = self.faults.plan
            qp.retry_cnt = plan.retry_cnt
            qp.rnr_retry = plan.rnr_retry
            if plan.ack_timeout_ns is not None:
                qp.ack_timeout_ns = plan.ack_timeout_ns
        self._qps[qp.qp_num] = qp
        if self.faults is not None:
            # retransmission needs the watchdog and idempotence handling
            # woven through the pipeline: keep the process machinery
            self.kernel.process(
                self._send_loop(qp), name=f"{self.name}-sq{qp.qp_num}"
            )
        else:
            self._tx_rearm(qp)
        return qp

    # -- posting (CPU side) -----------------------------------------------------------
    def post_send(self, qp: QueuePair, wr: SendWR) -> Generator:
        """Post a send WR: WQE build + doorbell (the paper's near-constant
        'post' cost), then hand off to the adapter."""
        span = trace.begin("ib.post_send", track=self.name, opcode=wr.opcode,
                           bytes=wr.total_bytes, sges=len(wr.sges))
        try:
            ticks = self._post_send_ticks(qp, wr)
            if not qp.wr_slots.try_acquire():  # blocks while the queue is full
                yield qp.wr_slots.request()
            yield self.kernel.timeout(ticks)
            qp.send_q.put_nowait(wr)
        finally:
            trace.end(span)

    def post_send_then(self, qp: QueuePair, wr: SendWR,
                       then: Callable[[], None]) -> None:
        """Callback form of :meth:`post_send`: the same checks (raised
        here, synchronously), cost, span and hand-off; *then()* runs once
        the WR is on the send queue."""
        span = trace.begin("ib.post_send", track=self.name, opcode=wr.opcode,
                           bytes=wr.total_bytes, sges=len(wr.sges))
        try:
            ticks = self._post_send_ticks(qp, wr)
        except BaseException:
            trace.end(span)
            raise

        def _queued(_ev):
            qp.send_q.put_nowait(wr)
            trace.end(span)
            then()

        if qp.wr_slots.try_acquire():
            self.kernel.call_after(ticks, _queued)
        else:  # the queue is full: wait for a slot
            qp.wr_slots.request().callbacks.append(
                lambda _ev: self.kernel.call_after(ticks, _queued)
            )

    def _post_send_ticks(self, qp: QueuePair, wr: SendWR) -> int:
        """Check a send WR and count the post; returns its CPU cost."""
        if not qp.connected:
            raise IBVerbsError(
                f"post_send on QP {qp.qp_num} in state {qp.state} "
                "(RTS required)"
            )
        if len(wr.sges) > qp.max_sge:
            raise IBVerbsError(f"{len(wr.sges)} SGEs exceeds QP max of {qp.max_sge}")
        san = sanitize._active
        for sge in wr.sges:
            mr = self.lookup_mr(sge.lkey)
            if not mr.contains(sge.addr, sge.length):
                raise IBVerbsError(
                    f"SGE [{sge.addr:#x}+{sge.length}] outside MR {mr.mr_id}"
                )
            if san is not None and san.mr:
                san.check_dma(mr, sge.addr, sge.length, "post_send")
        ns = (
            self.config.post_base_ns
            + len(wr.sges) * self.config.post_per_sge_ns
            + self.bus.doorbell_ns()
        )
        self.counters.add("hca.post_send")
        return self.clock.ns_to_ticks(ns)

    def post_recv(self, qp: QueuePair, wr: RecvWR) -> Generator:
        """Post a receive WR (no doorbell on the fast path)."""
        yield self.kernel.timeout(self._post_recv_ticks(wr))
        qp.recv_q.put_nowait(wr)

    def post_recv_then(self, qp: QueuePair, wr: RecvWR,
                       then: Callable[[], None]) -> None:
        """Callback form of :meth:`post_recv`; *then()* runs once the WR
        is on the receive queue."""
        ticks = self._post_recv_ticks(wr)

        def _queued(_ev):
            qp.recv_q.put_nowait(wr)
            then()

        self.kernel.call_after(ticks, _queued)

    def _post_recv_ticks(self, wr: RecvWR) -> int:
        """Check a receive WR and count the post; returns its CPU cost."""
        san = sanitize._active
        for sge in wr.sges:
            mr = self.lookup_mr(sge.lkey)
            if not mr.contains(sge.addr, sge.length):
                raise IBVerbsError(
                    f"SGE [{sge.addr:#x}+{sge.length}] outside MR {mr.mr_id}"
                )
            if san is not None and san.mr:
                san.check_dma(mr, sge.addr, sge.length, "post_recv")
        ns = self.config.post_base_ns * 0.6 + len(wr.sges) * self.config.post_per_sge_ns
        self.counters.add("hca.post_recv")
        return self.clock.ns_to_ticks(ns)

    # -- completion consumption (CPU side) ------------------------------------------------
    def wait_completion(self, cq: CompletionQueue) -> Generator:
        """Block until a CQE is available, consume it (one poll cost)."""
        wc = cq.store.try_get()
        if wc is None:
            wc = yield cq.store.get()
        yield self.kernel.timeout(self.clock.ns_to_ticks(self.config.poll_ns))
        return wc

    def poll_then(self, cq: CompletionQueue,
                  then: Callable[[WorkCompletion], None]) -> None:
        """Callback form of :meth:`wait_completion`: *then(wc)* runs one
        poll cost after a CQE is available (the CQ hands it over without
        a kernel event)."""
        ticks = self.clock.ns_to_ticks(self.config.poll_ns)
        cq.store.get_then(
            lambda wc: self.kernel.call_after(ticks, lambda _ev: then(wc))
        )

    def try_poll(self, cq: CompletionQueue) -> Optional[WorkCompletion]:
        """Non-blocking poll (untimed peek; benchmarks that care about
        poll cost use :meth:`wait_completion`)."""
        return cq.store.try_get()

    # -- adapter send pipeline ----------------------------------------------------------------
    def _send_loop(self, qp: QueuePair) -> Generator:
        while True:
            wr = yield qp.send_q.get()
            yield from self._handle_send(qp, wr)

    # -- folded send pipeline (see "Event folding" in the module docstring) --
    def _tx_rearm(self, qp: QueuePair) -> None:
        """Arm the folded send engine: the send queue hands it the next
        posted WR directly."""
        qp.send_q.get_then(lambda wr, qp=qp: self._tx_begin(qp, wr))

    def _tx_begin(self, qp: QueuePair, wr: SendWR) -> None:
        if (
            trace.active() is not None
            or not fastpath.fold_enabled()
            or not qp.connected
        ):
            # tracer spans wrap the generator body; flushes and debugging
            # take the process form too.  The process re-arms on exit so
            # the engine keeps running whichever machinery handled it.
            def _one(qp=qp, wr=wr):
                yield from self._handle_send(qp, wr)
                self._tx_rearm(qp)

            self.kernel.process(_one(), name=f"{self.name}-tx{qp.qp_num}")
            return
        # WQE fetch is a short exclusive bus read
        if self.bus.read_channel.try_acquire():
            self._tx_fetch(qp, wr)
        else:
            ev = self.bus.read_channel.request()
            ev.callbacks.append(
                lambda _ev, qp=qp, wr=wr: self._tx_fetch(qp, wr)
            )

    def _tx_fetch(self, qp: QueuePair, wr: SendWR) -> None:
        self.kernel.call_after(
            self.clock.ns_to_ticks(self.bus.wqe_fetch_ns(len(wr.sges))),
            lambda _ev, qp=qp, wr=wr: self._tx_launch(qp, wr),
        )

    def _tx_launch(self, qp: QueuePair, wr: SendWR) -> None:
        # mirrors the body of _handle_send between its two bus
        # holds: same costs, same ATT walk point, same delivery instant
        cfg = self.config
        self.bus.read_channel.release()
        if wr.opcode == "rdma_read":
            gather_ns = 0.0
            ser_ns = self.link.serialization_ns(16)
        else:
            gather_ns = self._gather_ns(wr)
            ser_ns = self.link.serialization_ns(wr.total_bytes)
        stream_ns = max(gather_ns, ser_ns)
        seq = next(_seq)
        self._outstanding[seq] = (qp, wr)
        packet = _Packet(
            kind=wr.opcode,
            src_qp=qp.qp_num,
            dst_qp=qp.peer_qp_num,
            seq=seq,
            wr_id=wr.wr_id,
            nbytes=wr.total_bytes,
            payload=wr.payload,
            remote_addr=wr.remote_addr,
            rkey=wr.rkey,
            stream_ns=stream_ns,
        )
        self.counters.add("hca.tx_messages")
        if wr.opcode != "rdma_read":
            self.counters.add("hca.tx_bytes", wr.total_bytes)
        wire = self.wire_to(qp.peer_hca)
        self._deliver(
            wire,
            packet,
            self.clock.ns_to_ticks(cfg.process_ns + self.link.config.latency_ns),
        )
        gather_ticks = self.clock.ns_to_ticks(gather_ns)
        if self.bus.read_channel.try_acquire():
            self._tx_drain(qp, gather_ticks)
        else:
            ev = self.bus.read_channel.request()
            ev.callbacks.append(
                lambda _ev, qp=qp, t=gather_ticks: self._tx_drain(qp, t)
            )

    def _tx_drain(self, qp: QueuePair, gather_ticks: int) -> None:
        self.kernel.call_after(gather_ticks, lambda _ev, qp=qp: self._tx_done(qp))

    def _tx_done(self, qp: QueuePair) -> None:
        self.bus.read_channel.release()
        self._tx_rearm(qp)

    def _att_range_ns(self, mr: MemoryRegion, addr: int, nbytes: int) -> float:
        """ATT stall for a DMA over ``[addr, addr+nbytes)`` of *mr*.

        One bulk sweep on the fast path (the entry indices of a DMA are
        consecutive), a per-entry walk on the reference path — both drive
        the same LRU state and counters.
        """
        entries = mr.entries_for(addr, nbytes)
        if not entries:  # zero-byte DMA: no translation walked
            return 0.0
        tracer = trace.active()
        if tracer is not None:
            tracer.instant("ib.att.range", track=self.name,
                           entries=len(entries))
        if fastpath.enabled():
            _, misses = self.att.sweep_range(mr.mr_id, entries.start, len(entries))
            return misses * self.att.config.fetch_ns
        ns = 0.0
        for entry in entries:
            _, stall = self.att.access(mr.mr_id, entry)
            ns += stall
        return ns

    def _gather_ns(self, wr: SendWR) -> float:
        """Bus-side cost of gathering all SGEs of *wr* (incl. ATT).

        A zero-byte WR launches no data DMA: the message is header-only
        and its cost floor is the link's per-packet time (see
        :meth:`repro.ib.link.IBLink.serialization_ns`), identical on the
        fast and reference costing paths.
        """
        if wr.total_bytes == 0:
            return 0.0
        cfg = self.config
        ns = self.bus.config.dma_setup_ns
        for i, sge in enumerate(wr.sges):
            if sge.length == 0:
                continue
            mr = self.lookup_mr(sge.lkey)
            ns += self._att_range_ns(mr, sge.addr, sge.length)
            ns += self.bus.bursts_for(sge.addr, sge.length) * self.bus.config.burst_ns
            ns += self.bus.offset_adjust_ns(sge.addr)
            if i > 0:
                if i < cfg.sge_pipeline_depth:
                    ns += cfg.sge_extra_ns
                else:
                    ns += cfg.sge_extra_pipelined_ns
        ns += self.bus.stream_ns(wr.total_bytes)
        return max(0.0, ns)

    def _handle_send(self, qp: QueuePair, wr: SendWR) -> Generator:
        span = trace.begin("ib.tx", track=self.name, opcode=wr.opcode,
                           bytes=wr.total_bytes, sges=len(wr.sges))
        try:
            cfg = self.config
            if not qp.connected:
                # the QP left RTS (SQE/ERROR after retry exhaustion) while
                # this WR sat in the send queue: flush it with an error CQE,
                # as real RC QPs do for queued work in an error state
                yield from self._flush_send(qp, wr)
                return
            # WQE fetch is a short exclusive bus read
            yield self.bus.read_channel.request()
            try:
                yield self.kernel.timeout(
                    self.clock.ns_to_ticks(self.bus.wqe_fetch_ns(len(wr.sges)))
                )
            finally:
                self.bus.read_channel.release()
            # data gather streams over the bus *while* the link serializes;
            # the wire carries the first bytes after pipeline + latency, and
            # the message keeps streaming for max(gather, serialization).
            # An RDMA-read WR carries no local data outbound: it is a small
            # request packet; the data streams back in the response.
            if wr.opcode == "rdma_read":
                gather_ns = 0.0
                ser_ns = self.link.serialization_ns(16)
            else:
                gather_ns = self._gather_ns(wr)
                ser_ns = self.link.serialization_ns(wr.total_bytes)
            stream_ns = max(gather_ns, ser_ns)
            seq = next(_seq)
            self._outstanding[seq] = (qp, wr)
            packet = _Packet(
                kind=wr.opcode,
                src_qp=qp.qp_num,
                dst_qp=qp.peer_qp_num,
                seq=seq,
                wr_id=wr.wr_id,
                nbytes=wr.total_bytes,
                payload=wr.payload,
                remote_addr=wr.remote_addr,
                rkey=wr.rkey,
                stream_ns=stream_ns,
            )
            self.counters.add("hca.tx_messages")
            if wr.opcode != "rdma_read":
                self.counters.add("hca.tx_bytes", wr.total_bytes)
            wire = self.wire_to(qp.peer_hca)
            self._deliver(
                wire,
                packet,
                self.clock.ns_to_ticks(cfg.process_ns + self.link.config.latency_ns),
            )
            if self.faults is not None:
                self.kernel.process(
                    self._retry_watchdog(qp, packet, wire),
                    name=f"{self.name}-watchdog-{packet.seq}",
                )
            # the send engine (and the bus read channel) stay busy for the
            # whole gather; the next WR on this QP starts after it
            yield self.bus.read_channel.request()
            try:
                yield self.kernel.timeout(self.clock.ns_to_ticks(gather_ns))
            finally:
                self.bus.read_channel.release()
        finally:
            trace.end(span)

    def _flush_send(self, qp: QueuePair, wr: SendWR) -> Generator:
        """Complete a queued WR with a flush error (QP not in RTS)."""
        if self.faults is not None:
            self.faults.counters.add("faults.qp.flushed")
        yield self.kernel.timeout(self.clock.ns_to_ticks(self.config.cqe_write_ns))
        qp.send_cq.store.put_nowait(
            WorkCompletion(
                wr_id=wr.wr_id,
                opcode=wr.opcode,
                byte_len=wr.total_bytes,
                status="work-request-flushed-error",
            )
        )
        qp.wr_slots.release()

    # -- fault injection & RC retransmission ---------------------------------
    def _deliver(self, wire: Wire, packet: _Packet, delay_ticks: int) -> None:
        """Put *packet* on *wire*, subject to injected loss/corruption.

        A dropped packet simply never arrives; a corrupted one arrives
        flagged and is discarded by the receiver's ICRC check.  Both are
        recovered by the sender's ack-timeout watchdog.
        """
        faults = self.faults
        if faults is not None:
            # acks and read *requests* are single small packets; the
            # read data rides in the response.  packets_for(0) is 1 — a
            # zero-byte message is still one header-only packet on the
            # wire, so it sees the same loss/corruption odds everywhere.
            if packet.kind not in ("ack", "rdma_read"):
                n_packets = self.link.packets_for(packet.nbytes)
            else:
                n_packets = 1
            if faults.message_dropped(n_packets):
                return
            if faults.message_corrupted(n_packets):
                packet = replace(packet, corrupt=True)
        wire.deliver(self, packet, delay_ticks)

    def _retry_watchdog(self, qp: QueuePair, packet: _Packet, wire: Wire) -> Generator:
        """Ack-timeout timer for one outbound message (runs only when
        fault injection is active).

        Sleeps for the QP's ack timeout (scaled so a clean exchange of
        this message always beats the timer), then: done if the ack
        arrived; an RNR wait if the receiver holds the message awaiting
        a receive WR (honouring ``rnr_retry``, where 7 = forever);
        otherwise a retransmission with exponential backoff, up to
        ``retry_cnt`` attempts before the send completes with a
        transport-retry-exceeded error CQE.
        """
        cfg = self.config
        link = self.link
        # floor: one full round trip of this message with margin — the
        # IB Local Ack Timeout is likewise quantized well above the RTT
        base_ns = max(
            qp.ack_timeout_ns,
            3.0
            * (
                cfg.process_ns
                + link.config.latency_ns
                + packet.stream_ns
                + link.ack_ns()
                + cfg.recv_wqe_ns
                + cfg.cqe_write_ns
            ),
        )
        base_ticks = max(1, self.clock.ns_to_ticks(base_ns))
        t0 = self.kernel.now
        attempts = 0
        rnr_waits = 0
        while True:
            yield self.kernel.timeout(base_ticks << min(attempts, 6))
            if packet.seq not in self._outstanding:
                # acked (or aborted elsewhere); record how long recovery
                # took if we actually had to retransmit
                if attempts:
                    self.faults.counters.add(
                        "faults.qp.recovery_ticks", self.kernel.now - t0
                    )
                return
            peer = qp.peer_hca
            if peer is not None and packet.seq in peer._rx_inflight:
                # delivered but waiting on a receive WR: the RNR NAK
                # path, governed by rnr_retry (7 = retry forever)
                self.faults.counters.add("faults.qp.rnr_naks")
                rnr_waits += 1
                if qp.rnr_retry != 7 and rnr_waits > qp.rnr_retry:
                    yield from self._abort_send(
                        qp, packet, "rnr-retry-exceeded-error"
                    )
                    return
                continue
            if attempts >= qp.retry_cnt:
                yield from self._abort_send(
                    qp, packet, "transport-retry-exceeded-error"
                )
                return
            attempts += 1
            self.faults.counters.add("faults.qp.retries")
            tracer = trace.active()
            if tracer is not None:
                tracer.instant("ib.qp.retry", track=self.name,
                               attempt=attempts, kind=packet.kind,
                               bytes=packet.nbytes)
            self._deliver(
                wire,
                packet,
                self.clock.ns_to_ticks(cfg.process_ns + link.config.latency_ns),
            )

    def _abort_send(self, qp: QueuePair, packet: _Packet, status: str) -> Generator:
        """Give up on an outbound message: error CQE, QP drops to SQE."""
        entry = self._outstanding.pop(packet.seq, None)
        if entry is None:
            return
        _, wr = entry
        self.faults.counters.add("faults.qp.retry_exhausted")
        tracer = trace.active()
        if tracer is not None:
            tracer.instant("ib.qp.abort", track=self.name, status=status,
                           kind=packet.kind, bytes=packet.nbytes)
        if qp.state == "RTS":
            qp.modify("SQE")
        yield self.kernel.timeout(self.clock.ns_to_ticks(self.config.cqe_write_ns))
        qp.send_cq.store.put_nowait(
            WorkCompletion(
                wr_id=wr.wr_id,
                opcode=wr.opcode,
                byte_len=wr.total_bytes,
                status=status,
            )
        )
        qp.wr_slots.release()

    # -- adapter receive pipeline ------------------------------------------------------------
    def _on_arrival(self, packet: _Packet, wire: Wire) -> None:
        if packet.corrupt:
            # failed the ICRC check: discard silently; the sender's
            # ack-timeout watchdog retransmits
            if self.faults is not None:
                self.faults.counters.add("faults.link.rejected")
            return
        if packet.kind == "ack" and self.faults is None:
            # a clean ack needs no receive pipeline: complete the send
            # after the CQE write, as one scheduled callback instead of a
            # spawned process (same instant, two fewer kernel events per
            # message; the fault path keeps the full duplicate handling)
            entry = self._outstanding.pop(packet.seq, None)
            if entry is None:
                raise IBVerbsError(f"ack for unknown sequence {packet.seq}")
            qp, wr = entry

            def _complete(_ev, qp=qp, wr=wr, status=packet.status):
                qp.send_cq.store.put_nowait(
                    WorkCompletion(
                        wr_id=wr.wr_id,
                        opcode=wr.opcode,
                        byte_len=wr.total_bytes,
                        status=status,
                    )
                )
                qp.wr_slots.release()

            self.kernel.call_after(
                self.clock.ns_to_ticks(self.config.cqe_write_ns), _complete
            )
            return
        if (
            self.faults is None
            and trace.active() is None
            and fastpath.fold_enabled()
        ):
            if packet.kind == "send":
                self._rx_send_begin(packet, wire)
                return
            if packet.kind == "rdma_write":
                self._rx_write_begin(packet, wire)
                return
        self.kernel.process(
            self._receive(packet, wire), name=f"{self.name}-rx-{packet.kind}"
        )

    def _receive(self, packet: _Packet, wire: Wire) -> Generator:
        if self.faults is not None and packet.kind in ("send", "rdma_write"):
            # retransmissions must be idempotent: a message being
            # processed is left alone (the sender sees RNR), a message
            # already processed is re-acked with its recorded status
            if packet.seq in self._rx_inflight:
                self.faults.counters.add("faults.qp.duplicates")
                return
            if packet.seq in self._rx_seen:
                self.faults.counters.add("faults.qp.duplicates")
                self._send_ack(packet, self._rx_seen[packet.seq], wire)
                return
            self._rx_inflight.add(packet.seq)
        if packet.kind == "ack":  # acks carry no span
            yield from self._complete_send(packet)
            return
        span = trace.begin("ib.rx", track=self.name, kind=packet.kind,
                           bytes=packet.nbytes)
        try:
            if packet.kind == "send":
                yield from self._receive_send(packet, wire)
            elif packet.kind == "rdma_write":
                yield from self._receive_rdma_write(packet, wire)
            elif packet.kind == "rdma_read":
                yield from self._receive_read_request(packet, wire)
            elif packet.kind == "read_response":
                yield from self._receive_read_response(packet)
            else:  # pragma: no cover - defensive
                raise IBVerbsError(f"unknown packet kind {packet.kind!r}")
        finally:
            trace.end(span)

    def _complete_send(self, packet: _Packet) -> Generator:
        entry = self._outstanding.pop(packet.seq, None)
        if entry is None:
            if self.faults is not None:
                # a duplicate ack for a message already completed (or
                # aborted): expected under retransmission, drop it
                self.faults.counters.add("faults.qp.stale_acks")
                return
            raise IBVerbsError(f"ack for unknown sequence {packet.seq}")
        qp, wr = entry
        yield self.kernel.timeout(self.clock.ns_to_ticks(self.config.cqe_write_ns))
        qp.send_cq.store.put_nowait(
            WorkCompletion(
                wr_id=wr.wr_id,
                opcode=wr.opcode,
                byte_len=wr.total_bytes,
                status=packet.status,
            )
        )
        qp.wr_slots.release()

    def _scatter_ns(self, sges: Sequence[SGE], payload_bytes: int) -> float:
        """Bus-side cost of scattering an inbound message.

        Zero payload bytes scatter nothing (the header-only-message
        counterpart of :meth:`_gather_ns`).
        """
        if payload_bytes == 0:
            return 0.0
        ns = self.bus.config.dma_setup_ns
        remaining = payload_bytes
        for i, sge in enumerate(sges):
            if remaining <= 0:
                break
            use = min(sge.length, remaining)
            mr = self.lookup_mr(sge.lkey)
            ns += self._att_range_ns(mr, sge.addr, use)
            ns += self.bus.bursts_for(sge.addr, use) * self.bus.config.burst_ns
            ns += self.bus.offset_adjust_ns(sge.addr)
            if i > 0:
                if i < self.config.sge_pipeline_depth:
                    ns += self.config.sge_extra_ns
                else:
                    ns += self.config.sge_extra_pipelined_ns
            remaining -= use
        ns += self.bus.stream_ns(payload_bytes)
        return ns

    # -- folded receive pipeline (see "Event folding" in the module docstring) --
    def _rx_send_begin(self, packet: _Packet, wire: Wire) -> None:
        """Folded two-sided receive: same ticks as :meth:`_receive_send`."""
        qp = self._qps.get(packet.dst_qp)
        if qp is None:
            raise IBVerbsError(f"send targets unknown QP {packet.dst_qp}")
        # the next posted receive, at once or when it is posted (the
        # RNR-wait model)
        qp.recv_q.get_then(
            lambda recv_wr, qp=qp, packet=packet, wire=wire:
                self._rx_send_fetch(qp, recv_wr, packet, wire)
        )

    def _rx_send_fetch(
        self, qp: QueuePair, recv_wr: RecvWR, packet: _Packet, wire: Wire
    ) -> None:
        status = "success"
        if recv_wr.total_bytes < packet.nbytes:
            status = "local-length-error"
        self.kernel.call_after(
            self.clock.ns_to_ticks(self.config.recv_wqe_ns),
            lambda _ev: self._rx_send_grant(qp, recv_wr, packet, wire, status),
        )

    def _rx_send_grant(
        self, qp: QueuePair, recv_wr: RecvWR, packet: _Packet, wire: Wire,
        status: str,
    ) -> None:
        if self.bus.write_channel.try_acquire():
            self._rx_send_scatter(qp, recv_wr, packet, wire, status)
        else:
            ev = self.bus.write_channel.request()
            ev.callbacks.append(
                lambda _ev: self._rx_send_scatter(qp, recv_wr, packet, wire, status)
            )

    def _rx_send_scatter(
        self, qp: QueuePair, recv_wr: RecvWR, packet: _Packet, wire: Wire,
        status: str,
    ) -> None:
        # ATT walked at the grant instant, exactly as the process form
        scatter_ns = self._scatter_ns(
            recv_wr.sges, min(packet.nbytes, recv_wr.total_bytes)
        )
        ns = max(scatter_ns, packet.stream_ns) + self.config.cqe_write_ns
        self.kernel.call_after(
            self.clock.ns_to_ticks(ns),
            lambda _ev: self._rx_send_done(qp, recv_wr, packet, wire, status),
        )

    def _rx_send_done(
        self, qp: QueuePair, recv_wr: RecvWR, packet: _Packet, wire: Wire,
        status: str,
    ) -> None:
        self.bus.write_channel.release()
        self.counters.add("hca.rx_messages")
        self.counters.add("hca.rx_bytes", packet.nbytes)
        qp.recv_cq.store.put_nowait(
            WorkCompletion(
                wr_id=recv_wr.wr_id,
                opcode="recv",
                byte_len=packet.nbytes,
                status=status,
                payload=packet.payload,
            )
        )
        self._send_ack(packet, status, wire)

    def _rx_write_begin(self, packet: _Packet, wire: Wire) -> None:
        """Folded one-sided write: same ticks as :meth:`_receive_rdma_write`."""
        mr = self._mrs_by_rkey.get(packet.rkey)
        san = sanitize._active
        if san is not None and san.mr:
            san.check_rkey(mr, packet.rkey, packet.remote_addr,
                           packet.nbytes, "rdma_write.rx")
        if (
            mr is None
            or not mr.registered
            or not mr.contains(packet.remote_addr, packet.nbytes)
        ):
            self._send_ack(packet, "remote-access-error", wire)
            return
        if self.bus.write_channel.try_acquire():
            self._rx_write_scatter(mr, packet, wire)
        else:
            ev = self.bus.write_channel.request()
            ev.callbacks.append(
                lambda _ev: self._rx_write_scatter(mr, packet, wire)
            )

    def _rx_write_scatter(self, mr: MemoryRegion, packet: _Packet, wire: Wire) -> None:
        scatter_ns = self.bus.config.dma_setup_ns
        scatter_ns += self._att_range_ns(mr, packet.remote_addr, packet.nbytes)
        scatter_ns += self.bus.bursts_for(packet.remote_addr, packet.nbytes) * \
            self.bus.config.burst_ns
        scatter_ns += self.bus.stream_ns(packet.nbytes)
        ns = max(scatter_ns, packet.stream_ns)
        self.kernel.call_after(
            self.clock.ns_to_ticks(ns),
            lambda _ev: self._rx_write_done(packet, wire),
        )

    def _rx_write_done(self, packet: _Packet, wire: Wire) -> None:
        self.bus.write_channel.release()
        self.rdma_landed[(packet.rkey, packet.remote_addr)] = packet.payload
        self.counters.add("hca.rx_messages")
        self.counters.add("hca.rx_bytes", packet.nbytes)
        self._send_ack(packet, "success", wire)

    def _receive_send(self, packet: _Packet, wire: Wire) -> Generator:
        qp = self._qps.get(packet.dst_qp)
        if qp is None:
            raise IBVerbsError(f"send targets unknown QP {packet.dst_qp}")
        # RC semantics: without a posted receive the sender would see RNR
        # retries; we model it as waiting for the receive to be posted.
        recv_wr = yield qp.recv_q.get()
        status = "success"
        if recv_wr.total_bytes < packet.nbytes:
            status = "local-length-error"
        yield self.kernel.timeout(self.clock.ns_to_ticks(self.config.recv_wqe_ns))
        yield self.bus.write_channel.request()
        try:
            scatter_ns = self._scatter_ns(
                recv_wr.sges, min(packet.nbytes, recv_wr.total_bytes)
            )
            # the scatter overlaps the inbound stream; the bus is busy for
            # whichever is longer, plus the CQE write
            ns = max(scatter_ns, packet.stream_ns) + self.config.cqe_write_ns
            yield self.kernel.timeout(self.clock.ns_to_ticks(ns))
        finally:
            self.bus.write_channel.release()
        self.counters.add("hca.rx_messages")
        self.counters.add("hca.rx_bytes", packet.nbytes)
        qp.recv_cq.store.put_nowait(
            WorkCompletion(
                wr_id=recv_wr.wr_id,
                opcode="recv",
                byte_len=packet.nbytes,
                status=status,
                payload=packet.payload,
            )
        )
        self._rx_done(packet, status)
        self._send_ack(packet, status, wire)

    def _receive_rdma_write(self, packet: _Packet, wire: Wire) -> Generator:
        mr = self._mrs_by_rkey.get(packet.rkey)
        san = sanitize._active
        if san is not None and san.mr:
            # catch the use-after-dereg rkey here, at the faulting rx,
            # instead of quietly answering remote-access-error below
            san.check_rkey(mr, packet.rkey, packet.remote_addr,
                           packet.nbytes, "rdma_write.rx")
        status = "success"
        if mr is None or not mr.registered:
            status = "remote-access-error"
        elif not mr.contains(packet.remote_addr, packet.nbytes):
            status = "remote-access-error"
        if status == "success":
            yield self.bus.write_channel.request()
            try:
                scatter_ns = self.bus.config.dma_setup_ns
                scatter_ns += self._att_range_ns(
                    mr, packet.remote_addr, packet.nbytes
                )
                scatter_ns += self.bus.bursts_for(packet.remote_addr, packet.nbytes) * \
                    self.bus.config.burst_ns
                scatter_ns += self.bus.stream_ns(packet.nbytes)
                ns = max(scatter_ns, packet.stream_ns)
                yield self.kernel.timeout(self.clock.ns_to_ticks(ns))
            finally:
                self.bus.write_channel.release()
            self.rdma_landed[(packet.rkey, packet.remote_addr)] = packet.payload
            self.counters.add("hca.rx_messages")
            self.counters.add("hca.rx_bytes", packet.nbytes)
        self._rx_done(packet, status)
        self._send_ack(packet, status, wire)

    def _receive_read_request(self, packet: _Packet, wire: Wire) -> Generator:
        """Responder half of an RDMA read: gather the exposed region
        and stream it back as a read response."""
        mr = self._mrs_by_rkey.get(packet.rkey)
        san = sanitize._active
        if san is not None and san.mr:
            san.check_rkey(mr, packet.rkey, packet.remote_addr,
                           packet.nbytes, "rdma_read.rx")
        status = "success"
        if mr is None or not mr.registered or not mr.contains(
            packet.remote_addr, packet.nbytes
        ):
            status = "remote-access-error"
        gather_ns = 0.0
        if status == "success":
            gather_ns = self.bus.config.dma_setup_ns
            gather_ns += self._att_range_ns(mr, packet.remote_addr, packet.nbytes)
            gather_ns += self.bus.bursts_for(
                packet.remote_addr, packet.nbytes
            ) * self.bus.config.burst_ns
            gather_ns += self.bus.stream_ns(packet.nbytes)
            self.counters.add("hca.tx_bytes", packet.nbytes)
        payload = self.rdma_exposed.get((packet.rkey, packet.remote_addr))
        ser_ns = self.link.serialization_ns(packet.nbytes)
        # the response streams while the gather runs (same overlap as the
        # send path); the first bytes leave after pipeline + latency
        response = _Packet(
            kind="read_response",
            src_qp=packet.dst_qp,
            dst_qp=packet.src_qp,
            seq=packet.seq,
            wr_id=packet.wr_id,
            nbytes=packet.nbytes,
            payload=payload,
            status=status,
            stream_ns=max(gather_ns, ser_ns),
        )
        self._deliver(
            wire, response,
            self.clock.ns_to_ticks(
                self.config.process_ns + self.link.config.latency_ns
            ),
        )
        if status == "success":
            yield self.bus.read_channel.request()
            try:
                yield self.kernel.timeout(self.clock.ns_to_ticks(gather_ns))
            finally:
                self.bus.read_channel.release()

    def _receive_read_response(self, packet: _Packet) -> Generator:
        """Initiator half: scatter the returned data locally, complete."""
        entry = self._outstanding.pop(packet.seq, None)
        if entry is None:
            if self.faults is not None:
                # duplicate response from a retransmitted read request
                self.faults.counters.add("faults.qp.stale_acks")
                return
            raise IBVerbsError(f"read response for unknown seq {packet.seq}")
        qp, wr = entry
        if packet.status == "success":
            yield self.bus.write_channel.request()
            try:
                scatter_ns = self._scatter_ns(wr.sges, packet.nbytes)
                ns = max(scatter_ns, packet.stream_ns) + self.config.cqe_write_ns
                yield self.kernel.timeout(self.clock.ns_to_ticks(ns))
            finally:
                self.bus.write_channel.release()
            self.counters.add("hca.rx_messages")
            self.counters.add("hca.rx_bytes", packet.nbytes)
        qp.send_cq.store.put_nowait(
            WorkCompletion(
                wr_id=wr.wr_id,
                opcode="rdma_read",
                byte_len=packet.nbytes,
                status=packet.status,
                payload=packet.payload,
            )
        )
        qp.wr_slots.release()

    def _rx_done(self, packet: _Packet, status: str) -> None:
        """Record an inbound message as fully processed so a later
        retransmission of it is re-acked instead of re-executed."""
        if self.faults is not None:
            self._rx_inflight.discard(packet.seq)
            self._rx_seen[packet.seq] = status

    def _send_ack(self, packet: _Packet, status: str, wire: Wire) -> None:
        ack = _Packet(
            kind="ack",
            src_qp=packet.dst_qp,
            dst_qp=packet.src_qp,
            seq=packet.seq,
            wr_id=packet.wr_id,
            nbytes=0,
            status=status,
        )
        self._deliver(wire, ack, self.clock.ns_to_ticks(self.link.ack_ns()))
