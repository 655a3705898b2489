"""The verbs surface: the objects user code holds.

Mirrors the OpenIB verbs the paper programs against: protection domains,
memory regions (with lkey/rkey), scatter-gather elements, send/receive
work requests, queue pairs and completion queues.  The objects here are
passive data; timing and movement live in :mod:`repro.ib.hca` and
:mod:`repro.ib.registration`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Optional, Sequence, Tuple

from repro.engine.core import SimKernel
from repro.engine.resources import Resource, Store

_ids = itertools.count(1)


class IBVerbsError(Exception):
    """Raised on verbs misuse (bad lkey, out-of-bounds SGE, QP state...)."""


@dataclass(frozen=True)
class ProtectionDomain:
    """A protection domain; regions and QPs must share one to interact."""

    pd_id: int

    @classmethod
    def fresh(cls) -> "ProtectionDomain":
        return cls(pd_id=next(_ids))


@dataclass
class MemoryRegion:
    """A registered memory region.

    Attributes
    ----------
    mr_id: adapter-side region handle.
    pd: owning protection domain.
    vaddr / length: the user range that was registered.
    entry_page_size: page size of the translations the driver uploaded
        (4 KB for the stock driver, 2 MB when the paper's patch is active
        and the buffer is hugepage-backed).
    n_entries: number of translation entries in adapter memory.
    base: page-aligned start of the registered span.
    lkey / rkey: local / remote access keys.
    """

    mr_id: int
    pd: ProtectionDomain
    vaddr: int
    length: int
    entry_page_size: int
    n_entries: int
    base: int
    lkey: int
    rkey: int
    registered: bool = True

    def contains(self, addr: int, nbytes: int) -> bool:
        """True if ``[addr, addr+nbytes)`` is inside the registered range."""
        return self.vaddr <= addr and addr + nbytes <= self.vaddr + self.length

    def entry_index(self, addr: int) -> int:
        """Translation-entry index covering *addr*."""
        if not (self.base <= addr < self.base + self.n_entries * self.entry_page_size):
            raise IBVerbsError(f"{addr:#x} outside MR {self.mr_id}")
        return (addr - self.base) // self.entry_page_size

    def entries_for(self, addr: int, nbytes: int) -> range:
        """Range of translation-entry indices a DMA of *nbytes* at *addr*
        walks through.  A zero-byte DMA walks no entries."""
        if nbytes < 0:
            raise IBVerbsError("DMA length must be non-negative")
        if nbytes == 0:
            return range(0)
        first = self.entry_index(addr)
        last = self.entry_index(addr + nbytes - 1)
        return range(first, last + 1)


class Record:
    """Base of the per-message records (work requests, completions,
    wire packets, MPI envelopes).

    They are built for every message, so they are ``__slots__`` classes
    with an explicit ``__init__`` rather than dataclasses, whose
    generated constructors (frozen ones above all) cost several times
    more.  They still compare field by field (records of different
    classes never compare equal) and print as ``Name(field=value, ...)``
    over the fields named in ``_FIELDS``.
    """

    __slots__ = ()
    #: the fields equality, hashing and ``repr`` look at, in order
    _FIELDS: Tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._FIELDS)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()  # type: ignore[attr-defined]

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._FIELDS)
        return f"{type(self).__name__}({fields})"


class SGE(Record):
    """One scatter/gather element of a work request (hashable).

    A zero-length SGE is legal (the IB spec allows zero-byte messages);
    the message is then header-only on the wire and costs the link's
    per-packet time, never 0 ns.
    """

    __slots__ = ("addr", "length", "lkey")
    _FIELDS = __slots__

    def __init__(self, addr: int, length: int, lkey: int):
        if length < 0:
            raise IBVerbsError(
                f"SGE length must be non-negative, got {length}")
        self.addr = addr
        self.length = length
        self.lkey = lkey

    def __hash__(self) -> int:
        return hash(self._values())


class SendWR(Record):
    """A send-queue work request.

    ``opcode`` is ``"send"`` (two-sided, consumes a remote RecvWR),
    ``"rdma_write"`` (one-sided, pushes the SGE data to
    ``remote_addr``/``rkey``) or ``"rdma_read"`` (one-sided, pulls
    ``remote_addr``/``rkey`` into the local SGE list).
    ``payload`` optionally carries real data (any Python object) to the
    other side — the co-simulation channel the MPI layer uses; for reads
    the payload comes back from the responder's exposure table.
    ``total_bytes`` is the message payload size (sum over SGEs), summed
    once at construction: the adapter reads it several times per WR.
    """

    __slots__ = ("wr_id", "sges", "opcode", "remote_addr", "rkey", "payload",
                 "total_bytes")
    _FIELDS = __slots__[:-1]

    def __init__(self, wr_id: int, sges: Sequence[SGE], opcode: str = "send",
                 remote_addr: int = 0, rkey: int = 0, payload: Any = None):
        if opcode not in ("send", "rdma_write", "rdma_read"):
            raise IBVerbsError(f"unsupported opcode {opcode!r}")
        if not sges:
            raise IBVerbsError("work request needs at least one SGE")
        self.wr_id = wr_id
        self.sges = sges
        self.opcode = opcode
        self.remote_addr = remote_addr
        self.rkey = rkey
        self.payload = payload
        self.total_bytes = (sges[0].length if len(sges) == 1
                            else sum(s.length for s in sges))


class RecvWR(Record):
    """A receive-queue work request (scatter list for an incoming send);
    ``total_bytes`` is the buffer capacity (sum over SGEs), summed once."""

    __slots__ = ("wr_id", "sges", "total_bytes")
    _FIELDS = __slots__[:-1]

    def __init__(self, wr_id: int, sges: Sequence[SGE]):
        if not sges:
            raise IBVerbsError("receive work request needs at least one SGE")
        self.wr_id = wr_id
        self.sges = sges
        self.total_bytes = (sges[0].length if len(sges) == 1
                            else sum(s.length for s in sges))


class WorkCompletion(Record):
    """A completion-queue entry (hashable when its payload is)."""

    __slots__ = ("wr_id", "opcode", "byte_len", "status", "payload")
    _FIELDS = __slots__

    def __init__(self, wr_id: int, opcode: str, byte_len: int,
                 status: str = "success", payload: Any = None):
        self.wr_id = wr_id
        self.opcode = opcode
        self.byte_len = byte_len
        self.status = status
        self.payload = payload

    def __hash__(self) -> int:
        return hash(self._values())

    @property
    def ok(self) -> bool:
        return self.status == "success"


class CompletionQueue:
    """A completion queue: CQEs land in a Store the consumer drains."""

    def __init__(self, kernel: SimKernel):
        self.cq_id = next(_ids)
        self.store = Store(kernel)

    def __len__(self) -> int:
        return len(self.store)


#: Legal forward transitions of the QP verbs state machine (IB spec
#: ch. 10.3).  Any state may additionally be forced to ERROR or torn
#: down to RESET — those arcs are handled in :meth:`QueuePair.modify`
#: rather than listed per state.  A send-queue error drains RTS to SQE,
#: which recovers back to RTS once the send queue has been flushed.
QP_TRANSITIONS = {
    "RESET": ("INIT",),
    "INIT": ("RTR",),
    "RTR": ("RTS",),
    "RTS": ("SQE",),
    "SQE": ("RTS",),
    "ERROR": (),
}

QP_STATES = tuple(QP_TRANSITIONS)


class QueuePair:
    """A reliable-connection queue pair.

    Created through :meth:`repro.ib.hca.HCA.create_qp`; the send queue is
    drained by the HCA's per-QP send engine, the receive queue is
    consumed as matching sends arrive.

    The QP carries the verbs state machine (RESET → INIT → RTR → RTS,
    with SQE/ERROR error states) and the RC retry attributes the fault
    subsystem exercises: ``retry_cnt`` (transport retries, a 3-bit
    counter in the spec), ``rnr_retry`` (receiver-not-ready retries,
    where 7 means retry forever) and ``ack_timeout_ns`` (the Local Ack
    Timeout floor before a retransmission).
    """

    def __init__(
        self,
        kernel: SimKernel,
        pd: ProtectionDomain,
        send_cq: CompletionQueue,
        recv_cq: CompletionQueue,
        max_sge: int = 128,
        max_send_wr: int = 128,
    ):
        self.qp_num = next(_ids)
        self.pd = pd
        self.send_cq = send_cq
        self.recv_cq = recv_cq
        self.max_sge = max_sge
        #: send-queue depth: posts block while this many WRs are
        #: outstanding (posted but not yet completed) — real QPs return
        #: ENOMEM; a blocking post models the usual retry loop.  A slot
        #: is taken at post time and released when the completion lands.
        self.max_send_wr = max_send_wr
        self.wr_slots = Resource(kernel, capacity=max_send_wr)
        self.send_q = Store(kernel)
        self.recv_q = Store(kernel)
        self.state = "RESET"
        #: the cable towards the peer's adapter (a
        #: :class:`repro.ib.hca.Wire`), not the adapter itself: the two
        #: adapters would hold each other through their QPs
        self.wire: Optional[object] = None
        self.peer_qp_num: Optional[int] = None
        #: transport retry budget before a send completes with
        #: "transport-retry-exceeded-error" (IB: 3 bits, 0-7)
        self.retry_cnt = 7
        #: receiver-not-ready retry budget; 7 = retry forever (IB spec)
        self.rnr_retry = 7
        #: floor of the ack timeout before a retransmission fires
        self.ack_timeout_ns = 50_000.0

    def modify(self, new_state: str) -> None:
        """Transition the QP, enforcing the verbs state machine.

        Forward arcs follow :data:`QP_TRANSITIONS`; any state may be
        forced to ERROR or torn down to RESET (both idempotent).
        """
        if new_state not in QP_STATES:
            raise IBVerbsError(
                f"unknown QP state {new_state!r} (valid: {', '.join(QP_STATES)})"
            )
        if new_state in ("RESET", "ERROR"):
            self.state = new_state
            if new_state == "RESET":
                self.wire = None
                self.peer_qp_num = None
            return
        if new_state not in QP_TRANSITIONS[self.state]:
            raise IBVerbsError(
                f"illegal QP {self.qp_num} transition "
                f"{self.state} -> {new_state}"
            )
        self.state = new_state

    def connect(self, wire: object, peer_qp_num: int) -> None:
        """Walk a RESET QP through INIT and RTR to RTS, targeting a
        peer QP at the far end of *wire*.  Reconnecting an armed QP is
        an error: real verbs require a reset first, and silently
        re-arming hid wiring bugs.
        """
        if self.state == "RTS":
            raise IBVerbsError(
                f"QP {self.qp_num} is already connected (RTS) to QP "
                f"{self.peer_qp_num}; reset() it before reconnecting"
            )
        if self.state != "RESET":
            raise IBVerbsError(
                f"connect() needs QP {self.qp_num} in RESET, "
                f"but it is in {self.state}"
            )
        self.wire = wire
        self.peer_qp_num = peer_qp_num
        for state in ("INIT", "RTR", "RTS"):
            self.modify(state)

    def reset(self) -> None:
        """Tear the QP down to RESET (clears the peer binding)."""
        self.modify("RESET")

    @property
    def connected(self) -> bool:
        return self.state == "RTS"
