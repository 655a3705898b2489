"""The host channel adapter: work-request processing as callback chains.

The §4 execution flow, step by step:

    "1. The consumer posts a send or receive work request.
     2. The network adapter transfers the specified data to the
        communication partner.
     3. After completion the adapter generates a completion queue entry.
     4. The consumer is notified about work completion by polling the
        completion queue or by an interrupt."

Step 1 is CPU work (:meth:`HCA.post_send_then` — WQE build + doorbell;
the paper measures it as a near-constant 230–950 TBR ticks).  Steps 2-3
are the adapter pipeline (:meth:`HCA._tx_begin` on the way out,
:meth:`HCA._on_arrival` on the way in): WQE fetch over the bus, per-SGE
ATT translation and DMA gather, wire transfer, remote scatter, CQE write
and the RC acknowledgement.  Step 4 is :meth:`HCA.poll_then`.

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

Callback chains
---------------

The adapter pipeline is one set of *callback chains*: each model delay
is a kernel step (:meth:`repro.engine.core.SimKernel.call_after`, a
bound method and its arguments) at its own tick and dispatch position,
with no process and no resume per ``yield``.  Merging even the ack's
arrival into the CQE write, which keeps every tick, reorders work
inside a tick and moves ``repro fig6`` in its last digits.  A two-sided
send costs 8 steps from post to send CQE: the post, the WQE fetch, the
gather drain and the wire arrival on the way out; the receive WQE, the
scatter plus receive CQE, the ack's arrival and the send CQE write on
the way back.  An RDMA write costs 7 (one scatter step at the target);
an RDMA read runs the request and the response the same way.  With the
MPI layer's CQ polls and bounce reposts, an ``imb-rndv`` wire message
costs 11.6 kernel events in all (see ``docs/performance.md``).
Uncontended resource grants are taken synchronously
(:meth:`repro.engine.resources.Resource.acquire_then`), the send and
receive queues hand a WR straight to a waiting chain, and a clean ack
carries no packet: the receiver schedules the sender's
:meth:`HCA._on_ack` directly.  Fixed costs (poll, CQE write, receive
WQE, launch latency, ack) are tick constants taken once per adapter.

Every run takes these chains: both costing paths, the sanitizer (its
hooks are synchronous calls at the same model points), a tracer (the
``ib.tx`` and ``ib.rx`` spans open in a chain's first step and close in
its done step, :meth:`repro.trace.Tracer.begin`/``end``) and a fault
plan.  Under a plan the chains take their fault variants: every wire
delivery draws loss and corruption, each outbound message arms an
ack-timeout watchdog step (:meth:`HCA._watch_fire`: RNR waits,
retransmission with backoff, abort to SQE), arrivals pass the
``_rx_inflight``/``_rx_seen`` idempotence check, acks travel as packets
and stale ones are dropped, and a WR queued on a QP that left RTS is
flushed.  ``tests/test_fault_pins.py`` pins those paths tick-exactly.

The verbs are callback forms too, each defined once:
:meth:`HCA.register_then`, :meth:`HCA.deregister_then`,
:meth:`HCA.post_send_then`, :meth:`HCA.post_recv_then` and
:meth:`HCA.poll_then`.  The MPI layer (:mod:`repro.mpi.op`) calls them
directly.  Process programs (the Fig 3/4 microbenchmark, the train
driver, endpoint setup) use the generator names
:meth:`HCA.register_memory`, :meth:`HCA.post_send`, :meth:`HCA.post_recv`
and :meth:`HCA.wait_completion`: adapters that wait on one event the
callback form settles, so they charge the same costs and open the same
spans at the price of that one kernel event.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass
from functools import partial
from typing import (Any, Callable, Dict, Generator, Optional, Sequence,
                    Set, Tuple)

from repro import fastpath, sanitize, trace
from repro.analysis.counters import CounterSet
from repro.engine.clock import TickClock
from repro.engine.core import SimKernel
from repro.faults import FaultInjector
from repro.ib.att import ATTCache
from repro.ib.bus import BusModel
from repro.ib.link import LinkConfig
from repro.ib.registration import RegistrationEngine
from repro.ib.verbs import (
    SGE,
    CompletionQueue,
    IBVerbsError,
    MemoryRegion,
    ProtectionDomain,
    QueuePair,
    Record,
    RecvWR,
    SendWR,
    WorkCompletion,
)
from repro.mem.address_space import AddressSpace
from repro.util import WeakCall

_seq = itertools.count(1)

#: bus config -> its ``({(addr, nbytes): (burst ns, offset ns)},
#: {nbytes: stream ns})`` memos, shared by every adapter on such a bus
#: (the bus arithmetic is pure, and each cluster a sweep builds DMAs the
#: same buffer addresses again)
_BUS_MEMOS: Dict[Any, Tuple[dict, dict]] = {}
#: entries kept per bus-term memo
_MEMO_MAX = 4096


def _end_span_then(span: Optional[dict], then: Callable[..., None],
                   *args: Any) -> None:
    """Close *span*, then carry on with ``then(*args)``."""
    trace.end(span)
    then(*args)


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

    def post_send_ns(self, n_sges: int, doorbell_ns: float) -> float:
        """CPU cost of posting one send WR of *n_sges* SGEs: WQE build
        plus the bus's *doorbell_ns*."""
        return self.post_base_ns + n_sges * self.post_per_sge_ns + doorbell_ns

    def sge_engine_ns(self, i: int) -> float:
        """DMA-engine cost SGE *i* (0-based) adds to its WR: nothing for
        the first, ``sge_extra_ns`` until the descriptor pipeline is
        full, ``sge_extra_pipelined_ns`` after."""
        if i < 1:
            return 0.0
        if i < self.sge_pipeline_depth:
            return self.sge_extra_ns
        return self.sge_extra_pipelined_ns


class _Packet(Record):
    """What travels on the wire between two HCAs.

    ``kind`` is the opcode of the WR that launched it, ``"ack"`` or
    ``"read_response"``.  ``stream_ns`` is how long the message's data
    keeps streaming after the first byte arrives — the slower of the
    sender's gather and the wire serialization.  The receiver overlaps
    its scatter DMA with that stream, so its bus hold is
    ``max(stream_ns, scatter_ns)``; this is the mechanism that hides ATT
    stalls inside bus/link slack (Opteron/PCIe) but exposes them when
    the bus is the bottleneck (Xeon/PCI-X).  ``corrupt`` is set by fault
    injection: the payload fails the receiver's ICRC check and the whole
    message is discarded on arrival.
    """

    __slots__ = ("kind", "src_qp", "dst_qp", "seq", "wr_id", "nbytes",
                 "payload", "remote_addr", "rkey", "status", "stream_ns",
                 "corrupt")
    _FIELDS = __slots__

    def __init__(self, kind: str, src_qp: int, dst_qp: int, seq: int,
                 wr_id: int, nbytes: int, payload: Any = None,
                 remote_addr: int = 0, rkey: int = 0, status: str = "success",
                 stream_ns: float = 0.0, corrupt: bool = False):
        self.kind = kind
        self.src_qp = src_qp
        self.dst_qp = dst_qp
        self.seq = seq
        self.wr_id = wr_id
        self.nbytes = nbytes
        self.payload = payload
        self.remote_addr = remote_addr
        self.rkey = rkey
        self.status = status
        self.stream_ns = stream_ns
        self.corrupt = corrupt

    def corrupted(self) -> "_Packet":
        """A copy of this packet that fails the receiver's ICRC check."""
        return _Packet(self.kind, self.src_qp, self.dst_qp, self.seq,
                       self.wr_id, self.nbytes, self.payload,
                       self.remote_addr, self.rkey, self.status,
                       self.stream_ns, True)


class Wire:
    """A point-to-point cable between two HCAs (both directions).

    The adapters own the cable (:meth:`HCA.attach_wire`); the cable
    points back at them weakly, so two wired adapters form no cycle.
    """

    def __init__(self, kernel: SimKernel):
        self.kernel = kernel
        self._ends: Dict[int, "weakref.ref[HCA]"] = {}
        #: id(sender) -> the HCA at the other end, resolved at attach
        self._far: Dict[int, "weakref.ref[HCA]"] = {}

    def attach(self, hca: "HCA") -> None:
        """Connect one HCA end."""
        if len(self._ends) >= 2 and id(hca) not in self._ends:
            raise IBVerbsError("a wire has exactly two ends")
        self._ends[id(hca)] = weakref.ref(hca)
        self._far = {
            key: other
            for key in self._ends
            for other_key, other in self._ends.items()
            if other_key != key
        }

    def far_end(self, sender: "HCA") -> "HCA":
        """The HCA at the other end from *sender*."""
        ref = self._far.get(id(sender))
        dest = None if ref is None else ref()
        if dest is None:
            raise IBVerbsError("wire has no far end attached")
        return dest

    def deliver(self, sender: "HCA", packet: _Packet, delay_ticks: int) -> None:
        """Schedule *packet* to arrive at the far end after *delay_ticks*.

        Arrival is a single kernel step, not a spawned process: a cable
        has no state to model between launch and landing, and one heap
        entry per packet instead of three (process start, timeout,
        process exit) is a measurable share of the event budget.
        """
        self.kernel.call_after(delay_ticks, self.far_end(sender)._on_arrival,
                               packet, self)


class HCA:
    """One adapter instance (see module docstring)."""

    def __init__(
        self,
        kernel: SimKernel,
        clock: TickClock,
        bus: BusModel,
        link: LinkConfig,
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
        #: duplicate retransmission is re-acked, never re-executed; the
        #: sender drops an entry once it retires the seq (:meth:`_retire`)
        self._rx_seen: Dict[int, str] = {}
        self._wires: Dict[int, Wire] = {}
        self._qps: Dict[int, QueuePair] = {}
        #: qp_num -> the QP's send engine, as its send queue holds it
        #: (see :meth:`_tx_rearm`)
        self._tx_engines: Dict[int, WeakCall] = {}
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
        # fixed costs in ticks, taken once from the frozen configs
        cfg = self.config
        self._poll_ticks = clock.ns_to_ticks(cfg.poll_ns)
        self._cqe_ticks = clock.ns_to_ticks(cfg.cqe_write_ns)
        self._recv_wqe_ticks = clock.ns_to_ticks(cfg.recv_wqe_ns)
        #: pipeline plus wire latency: launch to the first byte landing
        self._launch_ticks = clock.ns_to_ticks(cfg.process_ns + link.latency_ns)
        self._ack_ticks = clock.ns_to_ticks(link.ack_ns())
        #: in ns: each post adds it before its own rounding to ticks
        self._doorbell_ns = bus.config.doorbell_ns()
        # bus terms (see _BUS_MEMOS); a term is added to a sum exactly
        # as computed, so every float sum stays bit-identical
        self._dma_memo, self._stream_memo = _BUS_MEMOS.setdefault(
            bus.config, ({}, {}))

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
        """Bring two QPs to RTS pointing at each other over the wire the
        HCAs share (see :func:`connect_hcas`)."""
        wire = hca_a.wire_to(hca_b)
        qp_a.connect(wire, qp_b.qp_num)
        qp_b.connect(wire, qp_a.qp_num)

    # -- memory registration ----------------------------------------------------
    def register_then(
        self, aspace: AddressSpace, pd: ProtectionDomain, vaddr: int,
        length: int, then: Callable[[MemoryRegion], None],
    ) -> None:
        """Register a buffer (a timed CPU+bus operation, under an
        ``ib.mr.register`` span); *then(mr)* runs when the registration
        completes.  A failed registration raises here, synchronously."""
        tracer = trace.active()
        span = (None if tracer is None
                else tracer.begin("ib.mr.register", self.name, bytes=length))
        try:
            mr, ns = self.reg.register(aspace, pd, vaddr, length)
        except BaseException:
            trace.end(span)
            raise
        self._mrs_by_lkey[mr.lkey] = mr
        self._mrs_by_rkey[mr.rkey] = mr
        self.kernel.call_after(self.clock.ns_to_ticks(ns), _end_span_then,
                               span, then, mr)

    def deregister_then(self, aspace: AddressSpace, mr: MemoryRegion,
                        then: Callable[[], None]) -> None:
        """Deregister *mr* (timed, under an ``ib.mr.deregister`` span);
        *then()* runs when the deregistration completes."""
        tracer = trace.active()
        span = (None if tracer is None
                else tracer.begin("ib.mr.deregister", self.name, bytes=mr.length))
        try:
            ns = self.reg.deregister(aspace, mr)
        except BaseException:
            trace.end(span)
            raise
        self._mrs_by_lkey.pop(mr.lkey, None)
        self._mrs_by_rkey.pop(mr.rkey, None)
        self.kernel.call_after(self.clock.ns_to_ticks(ns), _end_span_then,
                               span, then)

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
        self._tx_engines[qp.qp_num] = WeakCall(self._tx_begin, qp.qp_num)
        self._tx_rearm(qp)
        return qp

    # -- posting (CPU side) -----------------------------------------------------------
    def post_send_then(self, qp: QueuePair, wr: SendWR,
                       then: Callable[[], None]) -> None:
        """Post a send WR: WQE build + doorbell (the paper's near-constant
        'post' cost), then hand off to the adapter.  The checks raise
        here, synchronously; a full send queue delays the post until a
        slot frees.  *then()* runs once the WR is on the send queue."""
        tracer = trace.active()
        span = (None if tracer is None
                else tracer.begin("ib.post_send", self.name, opcode=wr.opcode,
                                  bytes=wr.total_bytes, sges=len(wr.sges)))
        try:
            ticks = self._post_send_ticks(qp, wr)
        except BaseException:
            trace.end(span)
            raise
        qp.wr_slots.acquire_then(self.kernel.call_after, ticks,
                                 self._send_queued, qp, wr, span, then)

    def _send_queued(self, qp: QueuePair, wr: SendWR, span: Optional[dict],
                     then: Callable[[], None]) -> None:
        qp.send_q.put_nowait(wr)
        if span is not None:
            trace.end(span)
        then()

    def _post_send_ticks(self, qp: QueuePair, wr: SendWR) -> int:
        """Check a send WR and count the post; returns its CPU cost."""
        if not qp.connected:
            raise IBVerbsError(
                f"post_send on QP {qp.qp_num} in state {qp.state} "
                "(RTS required)"
            )
        if len(wr.sges) > qp.max_sge:
            raise IBVerbsError(f"{len(wr.sges)} SGEs exceeds QP max of {qp.max_sge}")
        self._check_sges(wr.sges, "post_send")
        ns = self.config.post_send_ns(len(wr.sges), self._doorbell_ns)
        self.counters.add("hca.post_send")
        return self.clock.ns_to_ticks(ns)

    def post_recv_then(self, qp: QueuePair, wr: RecvWR,
                       then: Callable[[], None]) -> None:
        """Post a receive WR (no doorbell on the fast path); *then()* runs
        once the WR is on the receive queue."""
        self.kernel.call_after(self._post_recv_ticks(wr), self._recv_queued,
                               qp, wr, then)

    def _recv_queued(self, qp: QueuePair, wr: RecvWR,
                     then: Callable[[], None]) -> None:
        qp.recv_q.put_nowait(wr)
        then()

    def _post_recv_ticks(self, wr: RecvWR) -> int:
        """Check a receive WR and count the post; returns its CPU cost."""
        self._check_sges(wr.sges, "post_recv")
        ns = self.config.post_base_ns * 0.6 + len(wr.sges) * self.config.post_per_sge_ns
        self.counters.add("hca.post_recv")
        return self.clock.ns_to_ticks(ns)

    def _check_sges(self, sges: Sequence[SGE], op: str) -> None:
        """Each SGE of a posted WR must lie inside a live MR; *op* labels
        the sanitizer's DMA check."""
        san = sanitize._active
        for sge in sges:
            mr = self.lookup_mr(sge.lkey)
            if not mr.contains(sge.addr, sge.length):
                raise IBVerbsError(
                    f"SGE [{sge.addr:#x}+{sge.length}] outside MR {mr.mr_id}"
                )
            if san is not None and san.mr:
                san.check_dma(mr, sge.addr, sge.length, op)

    # -- completion consumption (CPU side) ------------------------------------------------
    def poll_then(self, cq: CompletionQueue,
                  then: Callable[[WorkCompletion], None]) -> None:
        """Consume the next CQE: *then(wc)* runs one poll cost after a CQE
        is available (the CQ hands it over without a kernel event)."""
        cq.store.get_then(self.poller(then))

    def poller(self, then: Callable[[WorkCompletion], None]) -> Callable:
        """The CQ getter :meth:`poll_then` parks for *then*.  A progress
        engine that polls again after every CQE builds it once and parks
        it itself (``cq.store.get_then(poller)``)."""
        # the CQ calls this with the CQE: call_after(poll, then, wc)
        return partial(self.kernel.call_after, self._poll_ticks, then)

    # -- generator adapters for process programs (see module docstring) ---------
    def register_memory(
        self, aspace: AddressSpace, pd: ProtectionDomain, vaddr: int, length: int
    ) -> Generator:
        """``mr = yield from hca.register_memory(...)``: see
        :meth:`register_then`."""
        ev = self.kernel.event()
        self.register_then(aspace, pd, vaddr, length, ev.succeed)
        return (yield ev)

    def post_send(self, qp: QueuePair, wr: SendWR) -> Generator:
        """``yield from hca.post_send(qp, wr)``: see :meth:`post_send_then`."""
        ev = self.kernel.event()
        self.post_send_then(qp, wr, ev.succeed)
        return (yield ev)

    def post_recv(self, qp: QueuePair, wr: RecvWR) -> Generator:
        """``yield from hca.post_recv(qp, wr)``: see :meth:`post_recv_then`."""
        ev = self.kernel.event()
        self.post_recv_then(qp, wr, ev.succeed)
        return (yield ev)

    def wait_completion(self, cq: CompletionQueue) -> Generator:
        """``wc = yield from hca.wait_completion(cq)``: see :meth:`poll_then`."""
        ev = self.kernel.event()
        self.poll_then(cq, ev.succeed)
        return (yield ev)

    # -- adapter send pipeline -------------------------------------------------
    def _tx_rearm(self, qp: QueuePair) -> None:
        """Arm the send engine: the send queue hands it the next posted
        WR.  The armed callback names the QP by number and holds this
        adapter weakly, so the queue owns neither (see :class:`WeakCall`)."""
        qp.send_q.get_then(self._tx_engines[qp.qp_num])

    def _tx_begin(self, qp_num: int, wr: SendWR) -> None:
        qp = self._qps[qp_num]
        tracer = trace.active()
        span = (None if tracer is None
                else tracer.begin("ib.tx", self.name, opcode=wr.opcode,
                                  bytes=wr.total_bytes, sges=len(wr.sges)))
        if not qp.connected:
            # the QP left RTS (SQE after retry exhaustion) while this WR
            # sat in the send queue: flush it with an error CQE, as real
            # RC QPs do for queued work in an error state
            if self.faults is not None:
                self.faults.counters.add("faults.qp.flushed")
            self.kernel.call_after(self._cqe_ticks, self._tx_flushed, qp, wr,
                                   span)
            return
        # WQE fetch is a short exclusive bus read
        self.bus.read_channel.acquire_then(self._tx_fetch, qp, wr, span)

    def _tx_fetch(self, qp: QueuePair, wr: SendWR, span: Optional[dict]) -> None:
        self.kernel.call_after(
            self.clock.ns_to_ticks(self.bus.config.wqe_fetch_ns(len(wr.sges))),
            self._tx_launch, qp, wr, span)

    def _tx_launch(self, qp: QueuePair, wr: SendWR, span: Optional[dict]) -> None:
        # data gather streams over the bus *while* the link serializes;
        # the wire carries the first bytes after pipeline + latency, and
        # the message keeps streaming for max(gather, serialization).
        # An RDMA-read WR carries no local data outbound: it is a small
        # request packet; the data streams back in the response.
        read_channel = self.bus.read_channel
        read_channel.release()
        opcode = wr.opcode
        nbytes = wr.total_bytes
        if opcode == "rdma_read":
            gather_ns = 0.0
            ser_ns = self.link.serialization_ns(16)
        else:
            gather_ns = self._gather_ns(wr)
            ser_ns = self.link.serialization_ns(nbytes)
        seq = next(_seq)
        self._outstanding[seq] = (qp, wr)
        packet = _Packet(opcode, qp.qp_num, qp.peer_qp_num, seq, wr.wr_id,
                         nbytes, wr.payload, wr.remote_addr, wr.rkey,
                         "success", max(gather_ns, ser_ns))
        self.counters.add("hca.tx_messages")
        if opcode != "rdma_read":
            self.counters.add("hca.tx_bytes", nbytes)
        wire = qp.wire
        self._deliver(wire, packet, self._launch_ticks)
        if self.faults is not None:
            self._watch(qp, packet, wire)
        # the send engine (and the bus read channel) stay busy for the
        # whole gather; the next WR on this QP starts after it
        read_channel.acquire_then(self.kernel.call_after,
                                  self.clock.ns_to_ticks(gather_ns),
                                  self._tx_done, qp, span)

    def _tx_done(self, qp: QueuePair, span: Optional[dict]) -> None:
        self.bus.read_channel.release()
        if span is not None:
            trace.end(span)
        self._tx_rearm(qp)

    def _tx_flushed(self, qp: QueuePair, wr: SendWR, span: Optional[dict]) -> None:
        self._send_completed(qp, wr, "work-request-flushed-error")
        if span is not None:
            trace.end(span)
        self._tx_rearm(qp)

    def _att_range_ns(self, mr: MemoryRegion, addr: int, nbytes: int) -> float:
        """ATT stall for a DMA over ``[addr, addr+nbytes)`` of *mr*.

        One bulk sweep on the fast path (the entry indices of a DMA are
        consecutive), a per-entry walk on the reference path — both drive
        the same LRU state and counters.  The bounds are checked inline,
        as :meth:`MemoryRegion.entries_for` would, without building a
        ``range`` per DMA.
        """
        if nbytes <= 0:
            if nbytes < 0:
                raise IBVerbsError("DMA length must be non-negative")
            return 0.0  # zero-byte DMA: no translation walked
        base = mr.base
        page = mr.entry_page_size
        end = base + mr.n_entries * page
        last = addr + nbytes - 1
        if not base <= addr < end:
            raise IBVerbsError(f"{addr:#x} outside MR {mr.mr_id}")
        if last >= end:  # last >= addr >= base already
            raise IBVerbsError(f"{last:#x} outside MR {mr.mr_id}")
        first = (addr - base) // page
        count = (last - base) // page - first + 1
        tracer = trace.active()
        if tracer is not None:
            tracer.instant("ib.att.range", track=self.name, entries=count)
        if fastpath._enabled:
            _, misses = self.att.sweep_range(mr.mr_id, first, count)
            return misses * self.att.config.fetch_ns
        ns = 0.0
        for entry in range(first, first + count):
            _, stall = self.att.access(mr.mr_id, entry)
            ns += stall
        return ns

    def _gather_ns(self, wr: SendWR) -> float:
        """Bus-side cost of gathering all SGEs of *wr* (incl. ATT).

        A zero-byte WR launches no data DMA: the message is header-only
        and its cost floor is the link's per-packet time (see
        :meth:`repro.ib.link.LinkConfig.serialization_ns`), identical on the
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
            burst_ns, offset_ns = self._dma_terms(sge.addr, sge.length)
            ns += burst_ns
            ns += offset_ns
            if i > 0:
                ns += cfg.sge_engine_ns(i)
        ns += self._stream_ns(wr.total_bytes)
        return max(0.0, ns)

    def _dma_terms(self, addr: int, nbytes: int) -> Tuple[float, float]:
        """(burst ns, start-offset ns) of one DMA of *nbytes* at *addr*."""
        key = (addr, nbytes)
        terms = self._dma_memo.get(key)
        if terms is None:
            bus = self.bus.config
            terms = (bus.bursts_for(addr, nbytes) * bus.burst_ns,
                     bus.offset_adjust_ns(addr))
            if len(self._dma_memo) < _MEMO_MAX:
                self._dma_memo[key] = terms
        return terms

    def _stream_ns(self, nbytes: int) -> float:
        """Bus streaming time of *nbytes* (memoised per byte count)."""
        ns = self._stream_memo.get(nbytes)
        if ns is None:
            ns = self.bus.config.stream_ns(nbytes)
            if len(self._stream_memo) < _MEMO_MAX:
                self._stream_memo[nbytes] = ns
        return ns

    def _send_completed(self, qp: QueuePair, wr: SendWR, status: str,
                        payload: Any = None) -> None:
        """The CQE of send WR *wr* is written: queue it, free the slot
        (the one place a send slot is freed; an RDMA read's CQE carries
        the data read as *payload*)."""
        qp.send_cq.store.put_nowait(
            WorkCompletion(wr.wr_id, wr.opcode, wr.total_bytes, status, payload))
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
                packet = packet.corrupted()
        wire.deliver(self, packet, delay_ticks)

    def _watch(self, qp: QueuePair, packet: _Packet, wire: Wire) -> None:
        """Start the ack-timeout watchdog of one outbound message (only
        under a fault plan).

        It fires after the QP's ack timeout, scaled so a clean exchange
        of this message always beats it; see :meth:`_watch_fire`.
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
                + link.latency_ns
                + packet.stream_ns
                + link.ack_ns()
                + cfg.recv_wqe_ns
                + cfg.cqe_write_ns
            ),
        )
        base_ticks = max(1, self.clock.ns_to_ticks(base_ns))
        self.kernel.call_after(base_ticks, self._watch_fire, qp, packet, wire,
                               base_ticks, self.kernel.now, 0, 0)

    def _watch_fire(self, qp: QueuePair, packet: _Packet, wire: Wire,
                    base_ticks: int, t0: int, attempts: int,
                    rnr_waits: int) -> None:
        """The ack timer of *packet* expired.

        Done if the ack arrived; an RNR wait if the receiver holds the
        message awaiting a receive WR (honouring ``rnr_retry``, where 7 =
        forever); otherwise a retransmission with exponential backoff, up
        to ``retry_cnt`` attempts before the send completes with a
        transport-retry-exceeded error CQE.
        """
        counters = self.faults.counters
        if packet.seq not in self._outstanding:
            # acked (or aborted); record how long recovery took if we
            # actually had to retransmit
            if attempts:
                counters.add("faults.qp.recovery_ticks", self.kernel.now - t0)
            self._retire(qp, packet.seq)
            return
        peer_wire = qp.wire
        if (peer_wire is not None
                and packet.seq in peer_wire.far_end(self)._rx_inflight):
            # delivered but waiting on a receive WR: the RNR NAK path
            counters.add("faults.qp.rnr_naks")
            rnr_waits += 1
            if qp.rnr_retry != 7 and rnr_waits > qp.rnr_retry:
                self._abort_send(qp, packet, "rnr-retry-exceeded-error")
                return
        elif attempts >= qp.retry_cnt:
            self._abort_send(qp, packet, "transport-retry-exceeded-error")
            return
        else:
            attempts += 1
            counters.add("faults.qp.retries")
            tracer = trace.active()
            if tracer is not None:
                tracer.instant("ib.qp.retry", track=self.name,
                               attempt=attempts, kind=packet.kind,
                               bytes=packet.nbytes)
            self._deliver(wire, packet, self._launch_ticks)
        self.kernel.call_after(base_ticks << min(attempts, 6), self._watch_fire,
                               qp, packet, wire, base_ticks, t0, attempts,
                               rnr_waits)

    def _retire(self, qp: QueuePair, seq: int) -> None:
        """The sender is done with *seq*: the receiver may forget it.

        Every copy of the message has landed by now.  Copies are only
        sent from a watchdog step, each lands after the wire's fixed
        launch delay, and the delay is shorter than one watchdog period,
        so no duplicate can still arrive to need the recorded status.
        """
        wire = qp.wire
        if wire is not None:
            wire.far_end(self)._rx_seen.pop(seq, None)

    def _abort_send(self, qp: QueuePair, packet: _Packet, status: str) -> None:
        """Give up on an outbound message: error CQE, QP drops to SQE."""
        _, wr = self._outstanding.pop(packet.seq)
        self._retire(qp, packet.seq)
        self.faults.counters.add("faults.qp.retry_exhausted")
        tracer = trace.active()
        if tracer is not None:
            tracer.instant("ib.qp.abort", track=self.name, status=status,
                           kind=packet.kind, bytes=packet.nbytes)
        if qp.state == "RTS":
            qp.modify("SQE")
        self.kernel.call_after(self._cqe_ticks, self._send_completed, qp, wr,
                               status)

    # -- adapter receive pipeline ------------------------------------------------
    def _on_arrival(self, packet: _Packet, wire: Wire) -> None:
        if packet.corrupt:
            # failed the ICRC check: discard silently; the sender's
            # ack-timeout watchdog retransmits
            if self.faults is not None:
                self.faults.counters.add("faults.link.rejected")
            return
        kind = packet.kind
        if kind == "ack":  # acks carry no span
            self._on_ack(packet.seq, packet.status)
            return
        if self.faults is not None and kind in ("send", "rdma_write"):
            # retransmissions must be idempotent: a message being
            # processed is left alone (the sender sees RNR), a message
            # already processed is re-acked with its recorded status
            seq = packet.seq
            if seq in self._rx_inflight:
                self.faults.counters.add("faults.qp.duplicates")
                return
            if seq in self._rx_seen:
                self.faults.counters.add("faults.qp.duplicates")
                self._send_ack(packet, self._rx_seen[seq], wire)
                return
            self._rx_inflight.add(seq)
        tracer = trace.active()
        span = (None if tracer is None
                else tracer.begin("ib.rx", self.name, kind=kind,
                                  bytes=packet.nbytes))
        if kind == "send":
            self._rx_send_begin(packet, wire, span)
        elif kind == "rdma_write":
            self._rx_write_begin(packet, wire, span)
        elif kind == "rdma_read":
            self._rx_read_begin(packet, wire, span)
        elif kind == "read_response":
            self._rx_response_begin(packet, span)
        else:  # pragma: no cover - defensive
            raise IBVerbsError(f"unknown packet kind {kind!r}")

    def _on_ack(self, seq: int, status: str) -> None:
        """An ack landed: complete the send after the CQE write.

        Under a fault plan a duplicate ack, for a message already
        completed or aborted, is expected after a retransmission and is
        dropped.
        """
        entry = self._outstanding.pop(seq, None)
        if entry is None:
            if self.faults is None:
                raise IBVerbsError(f"ack for unknown sequence {seq}")
            self.faults.counters.add("faults.qp.stale_acks")
            return
        qp, wr = entry
        self.kernel.call_after(self._cqe_ticks, self._send_completed, qp, wr,
                               status)

    def _scatter_ns(self, sges: Sequence[SGE], payload_bytes: int) -> float:
        """Bus-side cost of scattering an inbound message.

        Zero payload bytes scatter nothing (the header-only-message
        counterpart of :meth:`_gather_ns`).
        """
        if payload_bytes == 0:
            return 0.0
        cfg = self.config
        ns = self.bus.config.dma_setup_ns
        remaining = payload_bytes
        for i, sge in enumerate(sges):
            if remaining <= 0:
                break
            use = min(sge.length, remaining)
            mr = self.lookup_mr(sge.lkey)
            ns += self._att_range_ns(mr, sge.addr, use)
            burst_ns, offset_ns = self._dma_terms(sge.addr, use)
            ns += burst_ns
            ns += offset_ns
            if i > 0:
                ns += cfg.sge_engine_ns(i)
            remaining -= use
        ns += self._stream_ns(payload_bytes)
        return ns

    # -- two-sided receive ------------------------------------------------------
    def _rx_send_begin(self, packet: _Packet, wire: Wire,
                       span: Optional[dict]) -> None:
        qp = self._qps.get(packet.dst_qp)
        if qp is None:
            raise IBVerbsError(f"send targets unknown QP {packet.dst_qp}")
        # RC semantics: without a posted receive the sender would see RNR
        # retries; it is modelled as waiting for the receive to be posted
        qp.recv_q.get_then(partial(self._rx_send_fetch, qp, packet, wire, span))

    def _rx_send_fetch(self, qp: QueuePair, packet: _Packet, wire: Wire,
                       span: Optional[dict], recv_wr: RecvWR) -> None:
        status = "success"
        if recv_wr.total_bytes < packet.nbytes:
            status = "local-length-error"
        self.kernel.call_after(self._recv_wqe_ticks, self._rx_send_grant,
                               qp, recv_wr, packet, wire, status, span)

    def _rx_send_grant(self, qp: QueuePair, recv_wr: RecvWR, packet: _Packet,
                       wire: Wire, status: str, span: Optional[dict]) -> None:
        self.bus.write_channel.acquire_then(self._rx_send_scatter, qp, recv_wr,
                                            packet, wire, status, span)

    def _rx_send_scatter(self, qp: QueuePair, recv_wr: RecvWR, packet: _Packet,
                         wire: Wire, status: str, span: Optional[dict]) -> None:
        # ATT walked at the grant instant; the scatter overlaps the
        # inbound stream, so the bus is busy for whichever is longer,
        # plus the CQE write
        scatter_ns = self._scatter_ns(
            recv_wr.sges, min(packet.nbytes, recv_wr.total_bytes)
        )
        ns = max(scatter_ns, packet.stream_ns) + self.config.cqe_write_ns
        self.kernel.call_after(self.clock.ns_to_ticks(ns), self._rx_send_done,
                               qp, recv_wr, packet, wire, status, span)

    def _rx_send_done(self, qp: QueuePair, recv_wr: RecvWR, packet: _Packet,
                      wire: Wire, status: str, span: Optional[dict]) -> None:
        self.bus.write_channel.release()
        self.counters.add("hca.rx_messages")
        self.counters.add("hca.rx_bytes", packet.nbytes)
        qp.recv_cq.store.put_nowait(
            WorkCompletion(recv_wr.wr_id, "recv", packet.nbytes, status,
                           packet.payload))
        self._rx_finish(packet, status, wire, span)

    # -- one-sided write ---------------------------------------------------------
    def _rx_write_begin(self, packet: _Packet, wire: Wire,
                        span: Optional[dict]) -> None:
        mr = self._mrs_by_rkey.get(packet.rkey)
        san = sanitize._active
        if san is not None and san.mr:
            # catch the use-after-dereg rkey here, at the faulting rx,
            # instead of quietly answering remote-access-error below
            san.check_rkey(mr, packet.rkey, packet.remote_addr,
                           packet.nbytes, "rdma_write.rx")
        if (
            mr is None
            or not mr.registered
            or not mr.contains(packet.remote_addr, packet.nbytes)
        ):
            self._rx_finish(packet, "remote-access-error", wire, span)
            return
        self.bus.write_channel.acquire_then(self._rx_write_scatter, mr, packet,
                                            wire, span)

    def _rx_write_scatter(self, mr: MemoryRegion, packet: _Packet, wire: Wire,
                          span: Optional[dict]) -> None:
        scatter_ns = self.bus.config.dma_setup_ns
        scatter_ns += self._att_range_ns(mr, packet.remote_addr, packet.nbytes)
        scatter_ns += self._dma_terms(packet.remote_addr, packet.nbytes)[0]
        scatter_ns += self._stream_ns(packet.nbytes)
        ns = max(scatter_ns, packet.stream_ns)
        self.kernel.call_after(self.clock.ns_to_ticks(ns), self._rx_write_done,
                               packet, wire, span)

    def _rx_write_done(self, packet: _Packet, wire: Wire,
                       span: Optional[dict]) -> None:
        self.bus.write_channel.release()
        self.rdma_landed[(packet.rkey, packet.remote_addr)] = packet.payload
        self.counters.add("hca.rx_messages")
        self.counters.add("hca.rx_bytes", packet.nbytes)
        self._rx_finish(packet, "success", wire, span)

    # -- one-sided read ------------------------------------------------------------
    def _rx_read_begin(self, packet: _Packet, wire: Wire,
                       span: Optional[dict]) -> None:
        """Responder half of an RDMA read: gather the exposed region
        and stream it back as a read response."""
        mr = self._mrs_by_rkey.get(packet.rkey)
        san = sanitize._active
        if san is not None and san.mr:
            san.check_rkey(mr, packet.rkey, packet.remote_addr,
                           packet.nbytes, "rdma_read.rx")
        ok = (mr is not None and mr.registered
              and mr.contains(packet.remote_addr, packet.nbytes))
        gather_ns = 0.0
        if ok:
            gather_ns = self.bus.config.dma_setup_ns
            gather_ns += self._att_range_ns(mr, packet.remote_addr, packet.nbytes)
            gather_ns += self._dma_terms(packet.remote_addr, packet.nbytes)[0]
            gather_ns += self._stream_ns(packet.nbytes)
            self.counters.add("hca.tx_bytes", packet.nbytes)
        # the response streams while the gather runs (same overlap as the
        # send path); the first bytes leave after pipeline + latency
        response = _Packet(
            "read_response", packet.dst_qp, packet.src_qp, packet.seq,
            packet.wr_id, packet.nbytes,
            self.rdma_exposed.get((packet.rkey, packet.remote_addr)),
            status="success" if ok else "remote-access-error",
            stream_ns=max(gather_ns, self.link.serialization_ns(packet.nbytes)),
        )
        self._deliver(wire, response, self._launch_ticks)
        if not ok:
            if span is not None:
                trace.end(span)
            return
        self.bus.read_channel.acquire_then(self.kernel.call_after,
                                           self.clock.ns_to_ticks(gather_ns),
                                           self._rx_read_done, span)

    def _rx_read_done(self, span: Optional[dict]) -> None:
        self.bus.read_channel.release()
        if span is not None:
            trace.end(span)

    def _rx_response_begin(self, packet: _Packet, span: Optional[dict]) -> None:
        """Initiator half of an RDMA read: scatter the returned data
        locally, then complete the read WR."""
        entry = self._outstanding.pop(packet.seq, None)
        if entry is None:
            if self.faults is None:
                raise IBVerbsError(f"read response for unknown seq {packet.seq}")
            # duplicate response from a retransmitted read request
            self.faults.counters.add("faults.qp.stale_acks")
            if span is not None:
                trace.end(span)
            return
        qp, wr = entry
        if packet.status != "success":
            self._rx_response_done(qp, wr, packet, span)
            return
        self.bus.write_channel.acquire_then(self._rx_response_scatter, qp, wr,
                                            packet, span)

    def _rx_response_scatter(self, qp: QueuePair, wr: SendWR, packet: _Packet,
                             span: Optional[dict]) -> None:
        scatter_ns = self._scatter_ns(wr.sges, packet.nbytes)
        ns = max(scatter_ns, packet.stream_ns) + self.config.cqe_write_ns
        self.kernel.call_after(self.clock.ns_to_ticks(ns),
                               self._rx_response_scattered, qp, wr, packet,
                               span)

    def _rx_response_scattered(self, qp: QueuePair, wr: SendWR,
                               packet: _Packet, span: Optional[dict]) -> None:
        self.bus.write_channel.release()
        self.counters.add("hca.rx_messages")
        self.counters.add("hca.rx_bytes", packet.nbytes)
        self._rx_response_done(qp, wr, packet, span)

    def _rx_response_done(self, qp: QueuePair, wr: SendWR, packet: _Packet,
                          span: Optional[dict]) -> None:
        self._send_completed(qp, wr, packet.status, packet.payload)
        if span is not None:
            trace.end(span)

    def _rx_finish(self, packet: _Packet, status: str, wire: Wire,
                   span: Optional[dict]) -> None:
        """An inbound send or RDMA write is processed: under a fault plan
        record it, so a later retransmission of it is re-acked instead of
        re-executed; then ack it and close its span."""
        if self.faults is not None:
            self._rx_inflight.discard(packet.seq)
            self._rx_seen[packet.seq] = status
        self._send_ack(packet, status, wire)
        if span is not None:
            trace.end(span)

    def _send_ack(self, packet: _Packet, status: str, wire: Wire) -> None:
        if self.faults is None:
            sender = wire.far_end(self)
            if sender.faults is None:
                # neither end can lose or corrupt it: a clean ack carries
                # no packet, only the sender's completion step
                self.kernel.call_after(self._ack_ticks, sender._on_ack,
                                       packet.seq, status)
                return
        ack = _Packet(
            kind="ack",
            src_qp=packet.dst_qp,
            dst_qp=packet.src_qp,
            seq=packet.seq,
            wr_id=packet.wr_id,
            nbytes=0,
            status=status,
        )
        self._deliver(wire, ack, self._ack_ticks)
