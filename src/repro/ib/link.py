"""The InfiniBand link: a full-duplex reliable-connection wire.

Models 4x SDR InfiniBand (10 Gb/s signalling, 8b/10b coding, ≈940 MB/s
payload after headers) as the paper's clusters used: per-message latency,
MTU segmentation with a per-packet cost, and streaming bandwidth.  Both
directions are independent (IB is full duplex), so an IMB *SendRecv* can
move ~2× the unidirectional rate — which is how the paper's Fig 5 peaks
near 1750 MB/s.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class LinkConfig:
    """Link parameters and the cost arithmetic of one direction of the
    wire.

    Attributes
    ----------
    payload_mb_s: per-direction payload bandwidth.
    mtu_bytes: maximum transfer unit (IB MTU, typically 2048).
    packet_ns: per-packet processing cost (headers, CRC, credits).
    latency_ns: wire + switch latency for the first byte.
    """

    payload_mb_s: float = 940.0
    mtu_bytes: int = 2048
    packet_ns: float = 45.0
    latency_ns: float = 650.0
    #: derived: serialization cost per payload byte (ns).  MB/s is
    #: bytes/µs, so ns/byte = 1000 / (MB/s); computed once here instead
    #: of on every :meth:`serialization_ns` call.
    ns_per_byte: float = 0.0

    def __post_init__(self) -> None:
        if self.payload_mb_s <= 0:
            raise ValueError("link bandwidth must be positive")
        if self.mtu_bytes <= 0:
            raise ValueError("MTU must be positive")
        object.__setattr__(self, "ns_per_byte", 1e3 / self.payload_mb_s)

    def packets_for(self, nbytes: int) -> int:
        """MTU packets needed for *nbytes* of payload (min 1: even a
        0-byte send or an ack is one packet)."""
        if nbytes < 0:
            raise ValueError("negative byte count")
        return max(1, (nbytes + self.mtu_bytes - 1) // self.mtu_bytes)

    def serialization_ns(self, nbytes: int) -> float:
        """Time to clock *nbytes* onto the wire (no latency).

        ``serialization_ns(0) == packet_ns``: a zero-byte send is one
        header-only packet, never 0 ns — the same floor the ack path
        (:meth:`ack_ns`) pays.  Every byte count costs at least one
        packet time, and the cost is the same on the fast and reference
        costing paths (both call this one function).
        """
        if nbytes < 0:
            raise ValueError(f"negative byte count {nbytes}")
        return self.packets_for(nbytes) * self.packet_ns + nbytes * self.ns_per_byte

    def transfer_ns(self, nbytes: int) -> float:
        """First-byte latency + serialization: one message, one way."""
        return self.latency_ns + self.serialization_ns(nbytes)

    def train_ns(self, nbytes: int, count: int) -> float:
        """Closed-form serialization of a back-to-back message train.

        A train of *count* equal messages pipelines at packet
        granularity: the link never idles between messages, so the wire
        time is exactly ``count * serialization_ns(nbytes)`` — the
        N-packet DATA train of one message and the M-message train of a
        window both collapse to the same per-packet arithmetic.  The
        first-byte latency is paid once per train, not per message; the
        caller adds it (see :meth:`transfer_ns`).  This is the wire half
        of the adapter's delivery model (see "Callback chains" in
        :mod:`repro.ib.hca`) and is pinned tick-exact against the DES
        pipeline by ``tests/test_wire_train.py``.
        """
        if count < 0:
            raise ValueError(f"negative message count {count}")
        return count * self.serialization_ns(nbytes)

    def ack_ns(self) -> float:
        """A zero-payload RC acknowledgement coming back."""
        return self.latency_ns + self.packet_ns
