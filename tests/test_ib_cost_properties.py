"""Property-based tests on the IB cost models: monotonicity, bounds and
consistency properties that any sane hardware model must satisfy."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.ib.bus import gx_bus, pci_express_x8, pci_x_133
from repro.ib.link import LinkConfig
from repro.mem.physical import PAGE_2M, PAGE_4K

BUSES = [pci_express_x8, pci_x_133, gx_bus]


def sge_data_ns(bus, paddr, nbytes):
    """The data term the adapter adds for one SGE of *nbytes* at
    *paddr* (:meth:`repro.ib.hca.HCA._gather_ns`, ``_scatter_ns``)."""
    return (bus.bursts_for(paddr, nbytes) * bus.burst_ns
            + bus.offset_adjust_ns(paddr) + bus.stream_ns(nbytes))


class TestBusCostProperties:
    @given(
        nbytes=st.integers(min_value=1, max_value=16 * 1024 * 1024),
        extra=st.integers(min_value=1, max_value=1024 * 1024),
        paddr=st.integers(min_value=0, max_value=1 << 40),
    )
    @settings(max_examples=100, deadline=None)
    def test_dma_read_monotone_in_size(self, nbytes, extra, paddr):
        bus = pci_express_x8()
        assert sge_data_ns(bus, paddr, nbytes) <= sge_data_ns(
            bus, paddr, nbytes + extra
        )

    @given(
        nbytes=st.integers(min_value=1, max_value=1 << 24),
        paddr=st.integers(min_value=0, max_value=1 << 40),
    )
    @settings(max_examples=100, deadline=None)
    def test_costs_positive_everywhere(self, nbytes, paddr):
        """Positive for every start off the Fig 4 sweet spot.  At a start
        of 64 (mod 128) the bonus exceeds a small SGE's burst and stream
        time, so the term goes negative there; only the adapter's clamps
        (``max(0.0, ...)`` on the gather, ``max(scatter, stream)`` on
        the receive) keep a charged cost from going below zero."""
        for factory in BUSES:
            bus = factory()
            if paddr % 128 != 64:
                assert sge_data_ns(bus, paddr, nbytes) > 0
            assert bus.stream_ns(nbytes) > 0

    @given(nbytes=st.integers(min_value=1, max_value=1 << 24))
    @settings(max_examples=50, deadline=None)
    def test_dma_never_beats_raw_stream(self, nbytes):
        """Bursts only add cost on top of the bandwidth floor."""
        bus = pci_x_133()
        assert sge_data_ns(bus, 0, nbytes) >= bus.stream_ns(nbytes)

    @given(
        paddr=st.integers(min_value=0, max_value=1 << 40),
        nbytes=st.integers(min_value=1, max_value=4096),
    )
    @settings(max_examples=100, deadline=None)
    def test_bursts_cover_the_range(self, paddr, nbytes):
        bus = gx_bus()
        bursts = bus.bursts_for(paddr, nbytes)
        b = bus.burst_bytes
        # enough bursts to cover the span, never more than span/b + 1
        assert bursts * b >= nbytes
        assert bursts <= (nbytes + b - 1) // b + 1

    @given(offset=st.integers(min_value=0, max_value=4095))
    @settings(max_examples=200, deadline=None)
    def test_offset_profile_bounded(self, offset):
        """The Fig 4 adjustment never exceeds a fraction of a microsecond
        and, off the sweet spot (see above), never drives an 8-byte
        SGE's data term negative."""
        for factory in BUSES:
            bus = factory()
            adj = bus.offset_adjust_ns(offset)
            assert abs(adj) < 500.0
            if offset % 128 != 64:
                assert sge_data_ns(bus, offset, 8) >= 0.0

    @given(n_sges=st.integers(min_value=0, max_value=256))
    @settings(max_examples=50, deadline=None)
    def test_wqe_fetch_monotone_in_sges(self, n_sges):
        bus = pci_express_x8()
        assert bus.wqe_fetch_ns(n_sges) <= bus.wqe_fetch_ns(n_sges + 1)


class TestLinkCostProperties:
    @given(
        nbytes=st.integers(min_value=0, max_value=1 << 25),
        extra=st.integers(min_value=1, max_value=1 << 20),
    )
    @settings(max_examples=100, deadline=None)
    def test_transfer_monotone(self, nbytes, extra):
        link = LinkConfig()
        assert link.transfer_ns(nbytes) <= link.transfer_ns(nbytes + extra)

    @given(nbytes=st.integers(min_value=1, max_value=1 << 25))
    @settings(max_examples=100, deadline=None)
    def test_effective_bandwidth_below_rated(self, nbytes):
        link = LinkConfig(payload_mb_s=940.0)
        ns = link.serialization_ns(nbytes)
        achieved_mb_s = nbytes / (ns / 1e9) / 1e6
        assert achieved_mb_s <= 940.0 + 1e-6

    @given(nbytes=st.integers(min_value=0, max_value=1 << 25))
    @settings(max_examples=100, deadline=None)
    def test_packets_consistent_with_mtu(self, nbytes):
        link = LinkConfig(mtu_bytes=2048)
        packets = link.packets_for(nbytes)
        assert packets >= 1
        assert (packets - 1) * 2048 < max(1, nbytes) <= packets * 2048 or nbytes == 0

    def test_zero_byte_send_is_one_header_packet(self):
        """A 0-byte send is a legal IB message: exactly one header-only
        packet, costing ``packet_ns`` on the wire — never 0 ns, and
        never a full byte's serialization smuggled in by a
        ``max(1, n)`` somewhere up the stack."""
        link = LinkConfig()
        assert link.packets_for(0) == 1
        assert link.serialization_ns(0) == link.packet_ns
        assert link.transfer_ns(0) == \
            link.latency_ns + link.packet_ns
        # the same floor the RC ack pays
        assert link.transfer_ns(0) == link.ack_ns()

    @given(nbytes=st.integers(min_value=1, max_value=1 << 25))
    @settings(max_examples=100, deadline=None)
    def test_zero_is_the_serialization_floor(self, nbytes):
        """serialization_ns(0) lower-bounds every payload size (strictly:
        any payload adds at least its byte time)."""
        link = LinkConfig()
        assert link.serialization_ns(0) < link.serialization_ns(nbytes)

    @given(nbytes=st.integers(min_value=0, max_value=1 << 25))
    @settings(max_examples=100, deadline=None)
    def test_serialization_has_per_packet_floor(self, nbytes):
        link = LinkConfig()
        assert link.serialization_ns(nbytes) >= \
            link.packets_for(nbytes) * link.packet_ns

    def test_negative_byte_count_rejected(self):
        link = LinkConfig()
        with pytest.raises(ValueError):
            link.packets_for(-1)
        with pytest.raises(ValueError):
            link.serialization_ns(-1)


class TestZeroByteMessageEndToEnd:
    """A 0-byte eager send must cost exactly the link's header-only
    packet on the wire and move zero payload bytes — identically on the
    fast and reference costing paths (the regression: a ``max(1,
    wire_bytes)`` SGE sizing charged every 0-byte send as 1 byte)."""

    def _run(self, send_bytes=None):
        from repro.mpi import MPIConfig, MPIWorld
        from repro.systems import Cluster, presets

        cluster = Cluster(presets.opteron_infinihost_pcie(), 2)
        world = MPIWorld(cluster, ppn=1, config=MPIConfig())

        def program(comm):
            if send_bytes is None:
                return
                yield  # noqa: unreachable — makes this a generator
            other = 1 - comm.rank
            if comm.rank == 0:
                t0 = comm.kernel.now
                yield from comm.send(other, 7, send_bytes, payload="empty")
                return comm.kernel.now - t0
            payload, size, _, _ = yield from comm.recv(0, 7)
            return (payload, size)

        results = world.run(program)
        counters = cluster.aggregate_counters()
        return results, counters

    def test_zero_byte_send_delivers_and_moves_no_payload(self):
        results, counters = self._run(send_bytes=0)
        assert results[1].value == ("empty", 0)
        # relative to a run that only does the implicit world barriers,
        # the 0-byte message added no payload bytes on the wire
        _, baseline = self._run(send_bytes=None)
        assert counters.get("hca.tx_bytes", 0) == \
            baseline.get("hca.tx_bytes", 0)
        assert counters.get("hca.rx_bytes", 0) == \
            baseline.get("hca.rx_bytes", 0)

    def test_zero_byte_send_identical_without_fastpath(self):
        from repro import fastpath

        fast = self._run(send_bytes=0)
        with fastpath.forced(False):
            slow = self._run(send_bytes=0)
        assert fast[0][0].value == slow[0][0].value  # same ticks
        assert fast[1] == slow[1]  # same counters


class TestRegistrationCostProperties:
    @given(
        n_pages=st.integers(min_value=1, max_value=2048),
        extra=st.integers(min_value=1, max_value=512),
    )
    @settings(max_examples=60, deadline=None)
    def test_registration_monotone_in_pages(self, n_pages, extra):
        from repro.ib.registration import RegistrationCosts

        costs = RegistrationCosts()

        def total(pages):
            return costs.register_ns(PAGE_4K, pages, pages)

        assert total(n_pages) < total(n_pages + extra)
        # hugepages pin and translate fewer, dearer pages: a 2 MB page
        # costs less than the 512 base pages it replaces
        assert (costs.register_ns(PAGE_2M, n_pages, n_pages)
                < costs.register_ns(PAGE_4K, 512 * n_pages, 512 * n_pages))

    def test_pin_cost_validates_page_size(self):
        from repro.ib.registration import RegistrationCosts

        with pytest.raises(ValueError):
            RegistrationCosts().pin_ns(8192)
