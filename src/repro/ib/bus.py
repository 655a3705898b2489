"""I/O bus models: PCI-Express, PCI-X and the IBM GX bus.

The bus is where three of the paper's observations live:

1. **DMA cost structure** — the HCA reads WQEs and gathers SGE data in
   fixed-size bursts; small transfers pay per-burst overheads, large ones
   approach the bus's streaming bandwidth.
2. **Offset sensitivity (Fig 4)** — "It appears that the memory access of
   the InfiniBand adapter or the underlying system I/O bus is optimized
   for certain offsets, e.g. at offset 64" (§4).  The paper reports the
   effect (≤8 % for 8–64 B buffers over offsets 0–128) without a
   mechanism, so we model it the same way they observed it: burst-
   boundary crossings cost an extra burst, sub-word misalignment costs a
   fixup, and offset ≡ 64 (mod 128) rides the adapter's preferred
   read-combining phase.
3. **Duplex** — PCI-X is a shared half-duplex bus (one transaction at a
   time, both directions contend); PCIe and GX have independent read and
   write channels.  This is why ATT stalls are hidden on the Opteron's
   PCIe system but visible on the Xeon's PCI-X system.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.core import SimKernel
from repro.engine.resources import Resource


@dataclass(frozen=True)
class BusConfig:
    """Bus timing parameters.

    Attributes
    ----------
    name: human-readable bus name.
    bandwidth_mb_s: sustained streaming DMA bandwidth (payload).
    burst_bytes: DMA burst granularity.
    burst_ns: fixed cost per burst (arbitration + header).
    dma_setup_ns: fixed cost to start one DMA descriptor.
    read_latency_ns: round-trip latency of a single read (WQE fetch).
    mmio_write_ns: a CPU doorbell write (posted).
    duplex: True when read and write channels are independent.
    unaligned_fixup_ns: extra cost when a DMA start is not 8-byte aligned.
    sweet_offset_bonus_ns: saving when the start offset ≡ 64 (mod 128).
    """

    name: str
    bandwidth_mb_s: float
    burst_bytes: int = 128
    burst_ns: float = 12.0
    dma_setup_ns: float = 140.0
    read_latency_ns: float = 280.0
    mmio_write_ns: float = 420.0
    duplex: bool = True
    unaligned_fixup_ns: float = 170.0
    sweet_offset_bonus_ns: float = 180.0

    def __post_init__(self) -> None:
        if self.bandwidth_mb_s <= 0:
            raise ValueError("bus bandwidth must be positive")
        if self.burst_bytes <= 0 or self.burst_bytes & (self.burst_bytes - 1):
            raise ValueError("burst size must be a positive power of two")

    # -- cost arithmetic (pure, ns) -------------------------------------------
    def bursts_for(self, paddr: int, nbytes: int) -> int:
        """Bursts needed to cover ``[paddr, paddr + nbytes)``."""
        if nbytes <= 0:
            raise ValueError(f"nbytes must be positive, got {nbytes}")
        b = self.burst_bytes
        return (paddr % b + nbytes + b - 1) // b

    def offset_adjust_ns(self, paddr: int) -> float:
        """Start-address-dependent adjustment (the Fig 4 profile)."""
        adjust = 0.0
        if paddr % 8:
            adjust += self.unaligned_fixup_ns
        if paddr % 128 == 64:
            adjust -= self.sweet_offset_bonus_ns
        return adjust

    def stream_ns(self, nbytes: int) -> float:
        """Pure streaming time for a bulk transfer at bus bandwidth."""
        if nbytes < 0:
            raise ValueError("negative byte count")
        return nbytes / self.bandwidth_mb_s * 1e3

    def wqe_fetch_ns(self, n_sges: int) -> float:
        """Fetching one WQE (64 B base + 16 B per SGE) from host memory."""
        wqe_bytes = 64 + 16 * max(0, n_sges)
        bursts = (wqe_bytes + self.burst_bytes - 1) // self.burst_bytes
        return self.read_latency_ns + bursts * self.burst_ns

    def doorbell_ns(self) -> float:
        """CPU ringing the HCA doorbell (posted MMIO write)."""
        return self.mmio_write_ns


def pci_express_x8() -> BusConfig:
    """PCIe 1.0 x8 (the Opteron system's Mellanox InfiniHost slot)."""
    return BusConfig(
        name="PCIe-x8",
        bandwidth_mb_s=1800.0,
        duplex=True,
    )


def pci_x_133() -> BusConfig:
    """PCI-X 64 bit / 133 MHz (the Xeon system's InfiniHost slot).

    Shared half-duplex bus; sustained DMA lands near 900 MB/s.
    """
    return BusConfig(
        name="PCI-X-133",
        bandwidth_mb_s=900.0,
        burst_ns=18.0,
        dma_setup_ns=180.0,
        read_latency_ns=380.0,
        mmio_write_ns=520.0,
        duplex=False,
    )


def gx_bus() -> BusConfig:
    """IBM GX bus (System p, eHCA attaches directly)."""
    return BusConfig(
        name="GX",
        bandwidth_mb_s=2400.0,
        burst_ns=10.0,
        dma_setup_ns=120.0,
        read_latency_ns=240.0,
        mmio_write_ns=380.0,
        duplex=True,
    )


class BusModel:
    """A bus instance: the DES channel resources of one :class:`BusConfig`.

    The read and write channels are :class:`~repro.engine.resources.
    Resource` objects; on a half-duplex bus they are the *same* resource,
    so concurrent senders and receivers serialise — exactly the PCI-X
    behaviour that exposes ATT stalls.  The cost arithmetic lives on the
    config.
    """

    def __init__(self, kernel: SimKernel, config: BusConfig):
        self.config = config
        self.read_channel = Resource(kernel, capacity=1)
        self.write_channel = (
            Resource(kernel, capacity=1) if config.duplex else self.read_channel
        )
