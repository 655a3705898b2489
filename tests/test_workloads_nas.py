"""Tests for the mini NAS kernels (functional verification + Fig 6 shape).

The class-W comparisons are module-scoped fixtures: each kernel runs
twice (small pages / preloaded hugepage library) on fresh clusters.
"""

import numpy as np
import pytest

from repro.systems import presets
from repro.workloads.nas import KERNELS
from repro.workloads.nas.common import compare_hugepages, run_nas


@pytest.fixture(scope="module")
def fig6():
    return {
        name: compare_hugepages(prog, presets.opteron_infinihost_pcie(), klass="W")
        for name, prog in KERNELS.items()
    }


class TestFunctionalVerification:
    """Every kernel really computes: results checked against references."""

    @pytest.mark.parametrize("name", list(KERNELS))
    def test_verified_small_pages(self, fig6, name):
        assert fig6[name].small.verified

    @pytest.mark.parametrize("name", list(KERNELS))
    def test_verified_hugepages(self, fig6, name):
        assert fig6[name].huge.verified

    def test_cg_converges(self):
        r = run_nas(KERNELS["CG"], presets.opteron_infinihost_pcie(),
                    hugepages=False, klass="W")
        assert r.verified

    def test_ep_rejects_a_reduction_missing_a_rank(self):
        """EP's reference is recomputed, never the reduced value: drop
        one rank's counts from the reduction and no rank verifies."""

        class DropRankCounts:
            def __init__(self, comm, dropped):
                self._comm, self._dropped = comm, dropped

            def __getattr__(self, name):
                return getattr(self._comm, name)

            def allreduce(self, nbytes, value=None, **kw):
                if isinstance(value, np.ndarray) and self._comm.rank == self._dropped:
                    value = np.zeros_like(value)
                return self._comm.allreduce(nbytes, value=value, **kw)

        def ep_missing_rank_3(comm, klass="W"):
            return (yield from KERNELS["EP"](DropRankCounts(comm, 3), klass))

        ep_missing_rank_3.kernel_name = "EP"
        spec = presets.opteron_infinihost_pcie()
        assert run_nas(KERNELS["EP"], spec, hugepages=False, klass="W").verified
        assert not run_nas(ep_missing_rank_3, spec, hugepages=False,
                           klass="W").verified

    def test_results_deterministic(self):
        a = run_nas(KERNELS["EP"], presets.opteron_infinihost_pcie(),
                    hugepages=False, klass="W")
        b = run_nas(KERNELS["EP"], presets.opteron_infinihost_pcie(),
                    hugepages=False, klass="W")
        assert a.total_ticks == b.total_ticks
        assert a.comm_ticks == b.comm_ticks


class TestFig6Shape:
    """The paper's Fig 6 claims, as ordering/threshold constraints."""

    def test_comm_improvement_over_8pct_except_mg_is(self, fig6):
        """'Except for MG and IS, all benchmarks show communication
        performance benefits of more than 8 %.'"""
        for name in ("CG", "EP", "LU"):
            assert fig6[name].comm_improvement_pct > 8.0, name
        for name in ("MG", "IS"):
            assert fig6[name].comm_improvement_pct < 8.0, name

    def test_all_benefit_overall_except_is(self, fig6):
        """'Overall, all benchmarks benefited from using hugepages -
        except for IS.'"""
        for name in ("CG", "EP", "LU", "MG"):
            assert fig6[name].overall_improvement_pct > 0.0, name
        assert fig6["IS"].overall_improvement_pct < 0.0

    def test_best_case_over_10pct(self, fig6):
        """'The results show time improvements of more than 10 %.'"""
        assert max(c.overall_improvement_pct for c in fig6.values()) > 10.0

    def test_is_computation_hurt_by_hugepages(self, fig6):
        """IS's bucket scatter loses page colouring on hugepages."""
        assert fig6["IS"].other_improvement_pct < 0.0


class TestTLBMisses:
    """§5.2: 'TLB misses increased dramatically with hugepages (up to
    eight times with EP) except for LU.'"""

    def test_misses_increase_except_lu(self, fig6):
        for name in ("CG", "EP", "IS", "MG"):
            assert fig6[name].tlb_miss_ratio > 1.0, name
        assert fig6["LU"].tlb_miss_ratio <= 1.0

    def test_ep_worst_and_bounded(self, fig6):
        assert 4.0 < fig6["EP"].tlb_miss_ratio < 9.0

    def test_extra_misses_do_not_dominate_runtime(self, fig6):
        """'TLB misses are not responsible for less application time' —
        EP gets faster despite the inflated miss count."""
        assert fig6["EP"].other_improvement_pct > 0.0


class TestRegistrationCacheBehaviour:
    def test_hugepage_runs_keep_cache_warm(self, fig6):
        """The library never unmaps on free, so cached registrations
        survive the workspace churn; libc's munmap invalidates them."""
        cg = fig6["CG"]
        assert cg.huge.regcache_misses < cg.small.regcache_misses

    def test_runner_rejects_unverified(self):
        def broken(comm, klass="W"):
            return {"verified": False}
            yield

        broken.kernel_name = "BROKEN"
        with pytest.raises(RuntimeError, match="verification failed"):
            compare_hugepages(broken, presets.opteron_infinihost_pcie())
