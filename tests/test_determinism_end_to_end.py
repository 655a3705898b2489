"""End-to-end determinism: identical runs produce identical results.

The shape assertions in benchmarks/ are only meaningful if the simulator
is bit-stable; these tests pin that property at the highest level.
"""

from repro.engine import SimKernel
from repro.engine.resources import Store
from repro.systems import presets
from repro.workloads.imb import SendRecvBenchmark
from repro.workloads.nas import KERNELS
from repro.workloads.nas.common import run_nas
from repro.workloads.verbs_micro import measure_send

KB = 1024
MB = 1024 * 1024


class TestDeterminism:
    def test_imb_sweep_identical_across_runs(self):
        bench = SendRecvBenchmark(presets.opteron_infinihost_pcie)
        a = bench.run([64 * KB, 1 * MB], hugepages=True, lazy_dereg=False)
        b = bench.run([64 * KB, 1 * MB], hugepages=True, lazy_dereg=False)
        assert [r.ticks_per_iter for r in a.rows] == \
            [r.ticks_per_iter for r in b.rows]

    def test_verbs_measure_identical(self):
        a = measure_send(sges=4, sge_size=128, offset=32)
        b = measure_send(sges=4, sge_size=128, offset=32)
        assert (a.post_ticks, a.poll_ticks) == (b.post_ticks, b.poll_ticks)

    def test_nas_run_identical(self):
        a = run_nas(KERNELS["MG"], presets.opteron_infinihost_pcie(),
                    hugepages=True, klass="W")
        b = run_nas(KERNELS["MG"], presets.opteron_infinihost_pcie(),
                    hugepages=True, klass="W")
        assert a.total_ticks == b.total_ticks
        assert a.tlb_misses_2m == b.tlb_misses_2m
        assert a.regcache_misses == b.regcache_misses


class TestStoreTryGet:
    def test_try_get_nonblocking(self):
        k = SimKernel()
        store = Store(k)
        assert store.try_get() is None
        store.put("x")
        assert store.try_get() == "x"
        assert store.try_get() is None

    def test_try_get_defers_to_waiting_getters(self):
        k = SimKernel()
        store = Store(k)
        got = []

        def waiter():
            item = yield store.get()
            got.append(item)

        k.process(waiter())
        k.run()
        # a parked getter has priority over a poller
        assert store.try_get() is None
        store.put("y")
        k.run()
        assert got == ["y"]

    def test_try_get_unblocks_putters(self):
        k = SimKernel()
        store = Store(k, capacity=1)
        store.put("a")
        ev = store.put("b")  # blocked on capacity
        assert not ev.triggered
        assert store.try_get() == "a"
        assert ev.triggered
        assert store.items == ("b",)
