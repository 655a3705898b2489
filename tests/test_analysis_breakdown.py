"""Tests for the communication-cost breakdown tool (§6 follow-up)."""

import pytest

from repro.analysis.breakdown import (
    breakdown_rdma_message,
    placement_comparison,
)
from repro.mem.physical import PAGE_2M, PAGE_4K
from repro.systems import presets

MB = 1024 * 1024


class TestBreakdownStructure:
    def test_critical_path_below_serial_total(self):
        b = breakdown_rdma_message(presets.opteron_infinihost_pcie(), 4 * MB)
        assert b.critical_path_ns < b.total_ns

    def test_validation(self):
        with pytest.raises(ValueError):
            breakdown_rdma_message(presets.opteron_infinihost_pcie(), 0)
        with pytest.raises(ValueError):
            breakdown_rdma_message(presets.opteron_infinihost_pcie(), 64,
                                   page_size=8192)


class TestBreakdownShapes:
    def test_registration_dominates_small_pages_uncached(self):
        """For a 4 MB uncached message, registration is the biggest
        non-transfer component on base pages."""
        b4k = breakdown_rdma_message(presets.opteron_infinihost_pcie(), 4 * MB,
                                     PAGE_4K)
        b2m = breakdown_rdma_message(presets.opteron_infinihost_pcie(), 4 * MB,
                                     PAGE_2M)
        assert b4k.registration_ns > 20 * b2m.registration_ns

    def test_cached_registration_vanishes(self):
        b = breakdown_rdma_message(presets.opteron_infinihost_pcie(), 4 * MB,
                                   registration_cached=True)
        assert b.registration_ns == 0.0

    def test_wire_dominates_large_cached_messages(self):
        b = breakdown_rdma_message(presets.opteron_infinihost_pcie(), 16 * MB,
                                   PAGE_2M, registration_cached=True,
                                   att_warm=True)
        assert b.dominant() in ("wire_ns", "gather_ns", "scatter_ns")

    def test_warm_att_only_helps_when_entries_fit(self):
        spec = presets.xeon_infinihost_pcix()
        cold = breakdown_rdma_message(spec, 4 * MB, PAGE_4K,
                                      registration_cached=True, att_warm=False)
        warm_4k = breakdown_rdma_message(spec, 4 * MB, PAGE_4K,
                                         registration_cached=True, att_warm=True)
        warm_2m = breakdown_rdma_message(
            presets.xeon_infinihost_pcix(hugepage_aware_driver=True),
            4 * MB, PAGE_2M, registration_cached=True, att_warm=True,
        )
        # 1024 entries never fit the 64-entry ATT: warm == cold on 4K
        assert warm_4k.gather_ns == cold.gather_ns
        # 2 entries (patched driver) do fit: warm 2M gather is cheaper
        assert warm_2m.gather_ns < warm_4k.gather_ns

    def test_breakdown_agrees_with_simulator(self):
        """The analytic critical path must land near the simulated
        steady-state bandwidth (<10 % off)."""
        b = breakdown_rdma_message(presets.opteron_infinihost_pcie(), 4 * MB,
                                   PAGE_2M, registration_cached=True,
                                   att_warm=True)
        predicted_mb_s = 4 * MB / (b.critical_path_ns / 1e9) / 1e6
        assert predicted_mb_s == pytest.approx(920, rel=0.10)

    def test_placement_comparison_keys(self):
        cmp = placement_comparison(presets.opteron_infinihost_pcie(), 1 * MB)
        assert set(cmp) == {"4k", "2m"}
        assert cmp["2m"].total_ns < cmp["4k"].total_ns

    def test_unaware_driver_expands_entries(self):
        spec = presets.xeon_infinihost_pcix(hugepage_aware_driver=False)
        b = breakdown_rdma_message(spec, 4 * MB, PAGE_2M)
        aware = breakdown_rdma_message(
            presets.xeon_infinihost_pcix(hugepage_aware_driver=True),
            4 * MB, PAGE_2M,
        )
        assert b.registration_ns > aware.registration_ns
        assert b.gather_ns > aware.gather_ns  # 512x the ATT traffic


#: ``breakdown_rdma_message`` components (post, registration, WQE fetch,
#: gather, wire, scatter, completion) recorded when the breakdown still
#: typed its own copy of the cost model, which acked in ``latency_ns``
KB = 1024
PINNED = {
    ("opteron", 64 * KB, PAGE_4K, False): (1136.0, 40240.0, 292.0, 46692.88888888889, 71809.14893617021, 46692.88888888889, 1390.0),
    ("opteron", 64 * KB, PAGE_4K, True): (1136.0, 0.0, 292.0, 46692.88888888889, 71809.14893617021, 46692.88888888889, 1390.0),
    ("opteron", 64 * KB, PAGE_2M, False): (1136.0, 31120.0, 292.0, 42942.88888888889, 71809.14893617021, 42942.88888888889, 1390.0),
    ("opteron", 64 * KB, PAGE_2M, True): (1136.0, 0.0, 292.0, 42942.88888888889, 71809.14893617021, 42942.88888888889, 1390.0),
    ("opteron", 4 * MB, PAGE_4K, False): (1136.0, 685360.0, 292.0, 2979524.888888889, 4554835.531914894, 2979524.888888889, 1390.0),
    ("opteron", 4 * MB, PAGE_4K, True): (1136.0, 0.0, 292.0, 2979524.888888889, 4554835.531914894, 2979524.888888889, 1390.0),
    ("opteron", 4 * MB, PAGE_2M, False): (1136.0, 32240.0, 292.0, 2724024.888888889, 4554835.531914894, 2724024.888888889, 1390.0),
    ("opteron", 4 * MB, PAGE_2M, True): (1136.0, 0.0, 292.0, 2724024.888888889, 4554835.531914894, 2724024.888888889, 1390.0),
    ("xeon", 64 * KB, PAGE_4K, False): (1236.0, 40240.0, 398.0, 86213.77777777778, 71809.14893617021, 86213.77777777778, 1390.0),
    ("xeon", 64 * KB, PAGE_4K, True): (1236.0, 0.0, 398.0, 86213.77777777778, 71809.14893617021, 86213.77777777778, 1390.0),
    ("xeon", 64 * KB, PAGE_2M, False): (1236.0, 92440.0, 398.0, 210213.77777777778, 71809.14893617021, 210213.77777777778, 1390.0),
    ("xeon", 64 * KB, PAGE_2M, True): (1236.0, 0.0, 398.0, 210213.77777777778, 71809.14893617021, 210213.77777777778, 1390.0),
    ("xeon", 4 * MB, PAGE_4K, False): (1236.0, 685360.0, 398.0, 5506341.777777778, 4554835.531914894, 5506341.777777778, 1390.0),
    ("xeon", 4 * MB, PAGE_4K, True): (1236.0, 0.0, 398.0, 5506341.777777778, 4554835.531914894, 5506341.777777778, 1390.0),
    ("xeon", 4 * MB, PAGE_2M, False): (1236.0, 154880.0, 398.0, 5506341.777777778, 4554835.531914894, 5506341.777777778, 1390.0),
    ("xeon", 4 * MB, PAGE_2M, True): (1236.0, 0.0, 398.0, 5506341.777777778, 4554835.531914894, 5506341.777777778, 1390.0),
}

SPECS = {"opteron": presets.opteron_infinihost_pcie,
         "xeon": presets.xeon_infinihost_pcix}


@pytest.mark.parametrize("key", sorted(PINNED, key=repr), ids=repr)
def test_breakdown_matches_pinned_components(key):
    """Every component is the model's own term: unchanged from the pin,
    except the ack, which is now the adapter's ``LinkConfig.ack_ns()``
    (latency plus one header packet)."""
    machine, size, page_size, cached = key
    spec = SPECS[machine]()
    b = breakdown_rdma_message(spec, size, page_size,
                               registration_cached=cached)
    post, reg, wqe, gather, wire, scatter, completion = PINNED[key]
    assert (b.post_ns, b.registration_ns, b.wqe_fetch_ns, b.gather_ns,
            b.wire_ns, b.scatter_ns) == (post, reg, wqe, gather, wire, scatter)
    assert b.completion_ns == completion + spec.link.packet_ns
