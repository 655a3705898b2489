"""Tests for the IMB SendRecv and verbs-microbenchmark workloads."""

import pytest

from repro.systems import presets
from repro.workloads.imb import PingPongBenchmark, SendRecvBenchmark
from repro.workloads.verbs_micro import measure_send

KB = 1024
MB = 1024 * 1024


@pytest.fixture(scope="module")
def opteron_sweeps():
    """One IMB sweep per configuration (module-scoped: they are the
    expensive part of this file)."""
    bench = SendRecvBenchmark(presets.opteron_infinihost_pcie)
    sizes = [1 * KB, 8 * KB, 64 * KB, 1 * MB, 4 * MB]
    return {
        (hp, lazy): bench.run(sizes, hugepages=hp, lazy_dereg=lazy)
        for hp in (False, True)
        for lazy in (True, False)
    }


class TestIMBSendRecv:
    def test_bandwidth_monotone_in_size(self, opteron_sweeps):
        rows = opteron_sweeps[(False, True)].rows
        bws = [r.bandwidth_mb_s for r in rows]
        assert bws == sorted(bws)

    def test_peak_near_bidirectional_link(self, opteron_sweeps):
        """Fig 5 peaks near 1750 MB/s (2x the ~940 MB/s link)."""
        peak = opteron_sweeps[(True, True)].bandwidth_at(4 * MB)
        assert 1600 < peak < 1900

    def test_lazy_dereg_parity_on_opteron(self, opteron_sweeps):
        """§5.1 case 2: 'The results show the same numbers for small
        pages as for hugepages' with lazy deregistration on."""
        small = opteron_sweeps[(False, True)].bandwidth_at(4 * MB)
        huge = opteron_sweeps[(True, True)].bandwidth_at(4 * MB)
        assert abs(small - huge) / small < 0.02

    def test_registration_hurts_small_pages(self, opteron_sweeps):
        """§5.1 case 1: with lazy dereg off, small pages pay registration
        on every message above the RDMA threshold."""
        with_cache = opteron_sweeps[(False, True)].bandwidth_at(4 * MB)
        without = opteron_sweeps[(False, False)].bandwidth_at(4 * MB)
        assert without < 0.92 * with_cache

    def test_hugepages_rescue_no_cache_case(self, opteron_sweeps):
        """§5.1: 'With hugepage mapped buffers greater than 4 MB size, we
        almost reach the maximum bandwidth.'"""
        huge_nocache = opteron_sweeps[(True, False)].bandwidth_at(4 * MB)
        peak = opteron_sweeps[(True, True)].bandwidth_at(4 * MB)
        assert huge_nocache > 0.95 * peak

    def test_no_registration_effect_below_rdma_threshold(self, opteron_sweeps):
        """'For buffers larger than 16 KB, it uses the RDMA feature ...
        so we only see memory registration effects for those buffers.'"""
        at_8k_cache = opteron_sweeps[(False, True)].bandwidth_at(8 * KB)
        at_8k_nocache = opteron_sweeps[(False, False)].bandwidth_at(8 * KB)
        assert at_8k_cache == pytest.approx(at_8k_nocache, rel=0.01)

    def test_validation(self):
        bench = SendRecvBenchmark(presets.opteron_infinihost_pcie)
        with pytest.raises(ValueError):
            bench.run([], hugepages=False, lazy_dereg=True)
        with pytest.raises(ValueError):
            SendRecvBenchmark(presets.opteron_infinihost_pcie, n_nodes=4)

    @pytest.mark.parametrize("bench_cls", [SendRecvBenchmark, PingPongBenchmark])
    @pytest.mark.parametrize("counts", [
        {"iterations": 0},
        {"iterations": -1},
        {"warmup": -1},
    ], ids=["iterations=0", "iterations=-1", "warmup=-1"])
    def test_bad_iteration_counts_refused_up_front(self, bench_cls, counts):
        """A sweep with no timed round (or a negative warm-up) used to
        build and run a cluster, then die with ``UnboundLocalError: t0``
        when reading the start tick it never took.  It is refused before
        any cluster is built."""
        bench = bench_cls(presets.opteron_infinihost_pcie)
        with pytest.raises(ValueError, match="iterations|warmup"):
            bench.run([1 * KB], hugepages=False, lazy_dereg=True, **counts)
        assert bench.last_cluster is None


class TestVerbsMicro:
    def test_post_constant_over_sizes(self):
        """'The time consumption of post operations is approximately
        constant for small and for large messages (1 byte - 64 kbytes)'"""
        posts = [measure_send(sges=1, sge_size=s).post_ticks
                 for s in (1, 512, 4 * KB, 64 * KB)]
        assert max(posts) == min(posts)

    def test_post_in_paper_tick_range(self):
        """'varies between 230-950 TBR ticks'"""
        t = measure_send(sges=1, sge_size=64)
        assert 150 <= t.post_ticks <= 950
        t128 = measure_send(sges=128, sge_size=64)
        assert t128.post_ticks <= 950

    def test_128_sges_post_about_3x(self):
        """'the time consumption by using 128 SGEs is only three times
        higher than with one SGE'"""
        one = measure_send(sges=1, sge_size=64).post_ticks
        many = measure_send(sges=128, sge_size=64).post_ticks
        assert 2.0 < many / one < 4.0

    def test_4_sges_at_most_14_percent(self):
        """'up to 128 Byte, the sending of 4 SGEs with same sizes ... is
        only 14 % more costly'"""
        for size in (8, 64, 128):
            one = measure_send(sges=1, sge_size=size).total_ticks
            four = measure_send(sges=4, sge_size=size).total_ticks
            assert four / one < 1.16

    def test_1sge_constant_then_linear(self):
        """'The outlay for 1 SGE is relatively constant up to 512 Bytes
        and then grows linearly with buffer size.'"""
        t1 = measure_send(sges=1, sge_size=1).total_ticks
        t512 = measure_send(sges=1, sge_size=512).total_ticks
        t64k = measure_send(sges=1, sge_size=64 * KB).total_ticks
        t32k = measure_send(sges=1, sge_size=32 * KB).total_ticks
        assert t512 / t1 < 1.25  # constant-ish
        assert 1.7 < t64k / t32k < 2.3  # linear regime

    def test_offset_best_at_64(self):
        """Fig 4: 'optimized for certain offsets, e.g. at offset 64',
        with up to ~8 % variation over offsets 0-128."""
        ticks = {
            off: measure_send(sges=1, sge_size=64, offset=off).total_ticks
            for off in list(range(0, 129, 16)) + [1, 63, 127]
        }
        best = min(ticks, key=ticks.get)
        assert best == 64
        swing = (max(ticks.values()) - min(ticks.values())) / max(ticks.values())
        assert 0.02 < swing < 0.10

    def test_validation(self):
        with pytest.raises(ValueError):
            measure_send(sges=0)
        with pytest.raises(ValueError):
            measure_send(offset=4096)
