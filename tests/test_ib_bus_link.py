"""Unit tests for the bus and link models."""

import pytest

from repro.engine import SimKernel
from repro.ib.bus import BusConfig, BusModel, gx_bus, pci_express_x8, pci_x_133
from repro.ib.link import LinkConfig


@pytest.fixture
def pcie():
    return pci_express_x8()


def sge_data_ns(bus, paddr, nbytes):
    """The data term the adapter adds for one SGE (burst, start offset
    and streaming time; see :meth:`repro.ib.hca.HCA._gather_ns`)."""
    return (bus.bursts_for(paddr, nbytes) * bus.burst_ns
            + bus.offset_adjust_ns(paddr) + bus.stream_ns(nbytes))


class TestBusConfig:
    def test_presets_sane(self):
        assert pci_express_x8().duplex
        assert not pci_x_133().duplex
        assert gx_bus().bandwidth_mb_s > pci_x_133().bandwidth_mb_s

    def test_validation(self):
        with pytest.raises(ValueError):
            BusConfig(name="bad", bandwidth_mb_s=0)
        with pytest.raises(ValueError):
            BusConfig(name="bad", bandwidth_mb_s=100, burst_bytes=100)


class TestBursts:
    def test_aligned_single_burst(self, pcie):
        assert pcie.bursts_for(0, 128) == 1
        assert pcie.bursts_for(0, 129) == 2

    def test_offset_adds_burst(self, pcie):
        assert pcie.bursts_for(64, 128) == 2  # straddles a boundary

    def test_invalid_size(self, pcie):
        with pytest.raises(ValueError):
            pcie.bursts_for(0, 0)


class TestOffsetProfile:
    """The Fig 4 behaviour (§4: 'optimized for certain offsets, e.g. at
    offset 64')."""

    def test_sweet_spot_at_64(self, pcie):
        assert pcie.offset_adjust_ns(64) < pcie.offset_adjust_ns(0)

    def test_sub_word_misalignment_costs(self, pcie):
        assert pcie.offset_adjust_ns(1) > pcie.offset_adjust_ns(0)
        assert pcie.offset_adjust_ns(7) > pcie.offset_adjust_ns(8)

    def test_profile_periodic_in_128(self, pcie):
        assert pcie.offset_adjust_ns(64) == pcie.offset_adjust_ns(192)

    def test_dma_cost_never_negative(self, pcie):
        """Off the sweet spot; at 64 (mod 128) an 8-byte SGE's term is
        negative, and only the adapter's clamps hide it."""
        for off in range(0, 256):
            if off % 128 != 64:
                assert sge_data_ns(pcie, off, 8) >= 0.0


class TestDMACosts:
    def test_large_read_approaches_bandwidth(self, pcie):
        nbytes = 8 * 1024 * 1024
        ns = sge_data_ns(pcie, 0, nbytes)
        ideal = pcie.stream_ns(nbytes)
        assert ns / ideal < 1.25

    def test_small_read_dominated_by_setup(self, pcie):
        # a one-SGE gather: the WR's DMA setup plus the SGE's data term
        ns = pcie.dma_setup_ns + sge_data_ns(pcie, 0, 8)
        assert ns > 10 * pcie.stream_ns(8)

    def test_wqe_fetch_grows_with_sges(self, pcie):
        assert pcie.wqe_fetch_ns(128) > pcie.wqe_fetch_ns(1)


class TestDuplexChannels:
    def test_pcie_independent_channels(self):
        bus = BusModel(SimKernel(), pci_express_x8())
        assert bus.read_channel is not bus.write_channel

    def test_pcix_shared_channel(self):
        """Half-duplex: reads and writes contend — the mechanism that
        exposes ATT stalls on the Xeon."""
        bus = BusModel(SimKernel(), pci_x_133())
        assert bus.read_channel is bus.write_channel


class TestLink:
    def test_packets(self):
        link = LinkConfig(mtu_bytes=2048)
        assert link.packets_for(0) == 1  # an ack is still a packet
        assert link.packets_for(2048) == 1
        assert link.packets_for(2049) == 2

    def test_transfer_includes_latency(self):
        link = LinkConfig()
        assert link.transfer_ns(1) > link.serialization_ns(1)

    def test_bandwidth_asymptote(self):
        link = LinkConfig(payload_mb_s=940.0)
        nbytes = 16 * 1024 * 1024
        ns = link.transfer_ns(nbytes)
        achieved = nbytes / (ns / 1e9) / 1e6
        assert achieved > 0.9 * 940.0

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkConfig(payload_mb_s=0)
        with pytest.raises(ValueError):
            LinkConfig().packets_for(-1)

    def test_ack_is_cheap(self):
        link = LinkConfig()
        assert link.ack_ns() < link.transfer_ns(2048)
