"""FIG5 — IMB SendRecv bandwidth on the Opteron/InfiniHost/PCIe system.

Regenerates Fig 5's four curves: {small pages, hugepages} x {lazy
deregistration on, off}, message sizes up to 16 MB.  Shape claims from
§5.1:

- with lazy deregistration the two page sizes coincide (ATT stalls hide
  inside PCIe slack on this system);
- without it, small pages lose heavily above the 16 KB RDMA threshold;
- hugepage buffers > 4 MB "almost reach the maximum bandwidth of
  approximately 1750 MB/s" even without the cache;
- below the RDMA threshold, registration does not appear at all.
"""

import pytest

from conftest import emit
from repro.analysis.report import Table
from repro.systems import presets
from repro.workloads.imb import SendRecvBenchmark

KB = 1024
MB = 1024 * 1024
SIZES = [1 * KB, 4 * KB, 8 * KB, 16 * KB, 64 * KB, 256 * KB, 1 * MB, 4 * MB, 16 * MB]

CURVES = [
    ("small pages", False, True),
    ("hugepages", True, True),
    ("small pages, no lazy dereg", False, False),
    ("hugepages, no lazy dereg", True, False),
]


def run_fig5():
    bench = SendRecvBenchmark(presets.opteron_infinihost_pcie)
    return {
        label: bench.run(SIZES, hugepages=hp, lazy_dereg=lazy)
        for label, hp, lazy in CURVES
    }


def test_fig5_imb_sendrecv(benchmark):
    sweeps = benchmark.pedantic(run_fig5, rounds=1, iterations=1)

    table = Table(["size [KB]"] + [label for label, *_ in CURVES],
                  title="FIG5: IMB SendRecv bandwidth [MB/s] (AMD Opteron)")
    for size in SIZES:
        table.add_row(
            [size // KB] + [sweeps[label].bandwidth_at(size) for label, *_ in CURVES]
        )
    emit("\n" + table.render())

    lazy_small = sweeps["small pages"]
    lazy_huge = sweeps["hugepages"]
    reg_small = sweeps["small pages, no lazy dereg"]
    reg_huge = sweeps["hugepages, no lazy dereg"]

    # peak approaches ~1750 MB/s (IMB counts both directions)
    peak = lazy_huge.bandwidth_at(16 * MB)
    assert 1600 < peak < 1950

    # lazy-dereg parity between page sizes on this system
    for size in (256 * KB, 4 * MB, 16 * MB):
        a, b = lazy_small.bandwidth_at(size), lazy_huge.bandwidth_at(size)
        assert abs(a - b) / a < 0.02, f"parity broken at {size}"

    # registration costs hit small pages hard above the RDMA threshold
    assert reg_small.bandwidth_at(4 * MB) < 0.92 * lazy_small.bandwidth_at(4 * MB)
    assert reg_small.bandwidth_at(64 * KB) < 0.80 * lazy_small.bandwidth_at(64 * KB)

    # hugepages nearly erase the no-cache penalty for large buffers
    assert reg_huge.bandwidth_at(4 * MB) > 0.95 * lazy_huge.bandwidth_at(4 * MB)
    assert reg_huge.bandwidth_at(16 * MB) > 0.97 * lazy_huge.bandwidth_at(16 * MB)

    # no registration effect below the RDMA threshold, on either page size
    assert reg_small.bandwidth_at(8 * KB) == pytest.approx(
        lazy_small.bandwidth_at(8 * KB), rel=0.01
    )
    assert reg_huge.bandwidth_at(8 * KB) == pytest.approx(
        lazy_huge.bandwidth_at(8 * KB), rel=0.01
    )

    benchmark.extra_info["peak_mb_s"] = round(peak)
    benchmark.extra_info["no_cache_penalty_small_4MB_pct"] = round(
        (1 - reg_small.bandwidth_at(4 * MB) / lazy_small.bandwidth_at(4 * MB)) * 100, 1
    )
