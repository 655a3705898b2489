"""Engine edge cases: store ordering and run semantics."""

import pytest

from repro.engine import SimError, SimKernel, Store


@pytest.fixture
def kernel():
    return SimKernel()


class TestStoreEdgeCases:
    def test_many_getters_fifo(self, kernel):
        store = Store(kernel)
        order = []

        def getter(name):
            item = yield store.get()
            order.append((name, item))

        for name in "abc":
            kernel.process(getter(name))
        kernel.run()
        for item in (1, 2, 3):
            store.put(item)
        kernel.run()
        assert order == [("a", 1), ("b", 2), ("c", 3)]

    def test_put_event_value_none(self, kernel):
        store = Store(kernel)
        ev = store.put("x")
        assert ev.triggered and ev.ok

    def test_capacity_chain_drains_in_order(self, kernel):
        store = Store(kernel, capacity=1)
        events = [store.put(i) for i in range(4)]
        assert [e.triggered for e in events] == [True, False, False, False]
        drained = []

        def consumer():
            for _ in range(4):
                item = yield store.get()
                drained.append(item)

        kernel.process(consumer())
        kernel.run()
        assert drained == [0, 1, 2, 3]
        assert all(e.triggered for e in events)


class TestRunSemantics:
    def test_run_twice_continues(self, kernel):
        hits = []

        def beeper():
            for _ in range(3):
                yield kernel.timeout(10)
                hits.append(kernel.now)

        kernel.process(beeper())
        kernel.run(until=15)
        assert hits == [10]
        kernel.run()
        assert hits == [10, 20, 30]

    def test_peek(self, kernel):
        assert kernel.peek() is None
        kernel.timeout(42)
        assert kernel.peek() == 42

    def test_step_on_empty_queue(self, kernel):
        with pytest.raises(SimError):
            kernel.step()
