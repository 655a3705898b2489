"""Unit tests for the DES kernel (repro.engine.core)."""

import pytest

from repro.engine import SimError, SimKernel


@pytest.fixture
def kernel():
    return SimKernel()


class TestClockAndTimeout:
    def test_time_starts_at_zero(self, kernel):
        assert kernel.now == 0

    def test_timeout_advances_clock(self, kernel):
        def proc():
            yield kernel.timeout(42)

        kernel.process(proc())
        kernel.run()
        assert kernel.now == 42

    def test_timeout_value_passthrough(self, kernel):
        seen = []

        def proc():
            v = yield kernel.timeout(5, value="hello")
            seen.append(v)

        kernel.process(proc())
        kernel.run()
        assert seen == ["hello"]

    def test_negative_timeout_rejected(self, kernel):
        with pytest.raises(SimError):
            kernel.timeout(-1)

    def test_negative_call_after_rejected(self, kernel):
        """A step at tick 10 asking for tick 5 must not run the clock
        backwards: the request raises and nothing is scheduled."""
        fired = []

        def step():
            with pytest.raises(SimError, match="negative call_after delay"):
                kernel.call_after(-5, fired.append, "past")

        kernel.call_after(10, step)
        kernel.run()
        assert kernel.now == 10 and not fired and kernel.peek() is None

    def test_trigger_takes_no_delay(self, kernel):
        """Only ``timeout`` and ``call_after`` schedule ahead; an event
        is triggered at the current tick."""
        with pytest.raises(TypeError):
            kernel.event().succeed(1, delay=-3)
        with pytest.raises(TypeError):
            kernel.event().fail(RuntimeError("x"), delay=-3)

    def test_zero_timeout_allowed(self, kernel):
        def proc():
            yield kernel.timeout(0)
            return kernel.now

        p = kernel.process(proc())
        kernel.run()
        assert p.value == 0

    def test_run_until_stops_clock(self, kernel):
        def proc():
            yield kernel.timeout(100)

        kernel.process(proc())
        kernel.run(until=50)
        assert kernel.now == 50

    def test_run_until_in_past_rejected(self, kernel):
        def proc():
            yield kernel.timeout(100)

        kernel.process(proc())
        kernel.run()
        with pytest.raises(SimError):
            kernel.run(until=50)

    def test_sequential_timeouts_accumulate(self, kernel):
        def proc():
            yield kernel.timeout(10)
            yield kernel.timeout(20)
            yield kernel.timeout(30)
            return kernel.now

        p = kernel.process(proc())
        kernel.run()
        assert p.value == 60


class TestEvents:
    def test_manual_succeed(self, kernel):
        ev = kernel.event()
        results = []

        def waiter():
            v = yield ev
            results.append((kernel.now, v))

        def trigger():
            yield kernel.timeout(7)
            ev.succeed("done")

        kernel.process(waiter())
        kernel.process(trigger())
        kernel.run()
        assert results == [(7, "done")]

    def test_double_trigger_rejected(self, kernel):
        ev = kernel.event()
        ev.succeed(1)
        with pytest.raises(SimError):
            ev.succeed(2)

    def test_fail_throws_into_waiter(self, kernel):
        ev = kernel.event()
        caught = []

        def waiter():
            try:
                yield ev
            except RuntimeError as exc:
                caught.append(str(exc))

        def trigger():
            yield kernel.timeout(1)
            ev.fail(RuntimeError("boom"))

        kernel.process(waiter())
        kernel.process(trigger())
        kernel.run()
        assert caught == ["boom"]

    def test_fail_requires_exception(self, kernel):
        ev = kernel.event()
        with pytest.raises(TypeError):
            ev.fail("not an exception")

    def test_yield_processed_event_resumes_immediately(self, kernel):
        ev = kernel.event()
        ev.succeed("early")
        results = []

        def waiter():
            yield kernel.timeout(10)  # event fires long before this
            v = yield ev
            results.append((kernel.now, v))

        kernel.process(waiter())
        kernel.run()
        assert results == [(10, "early")]

    def test_yield_non_event_is_error(self, kernel):
        def proc():
            yield 42

        kernel.process(proc())
        with pytest.raises(SimError):
            kernel.run()


class TestProcesses:
    def test_return_value(self, kernel):
        def proc():
            yield kernel.timeout(1)
            return "result"

        p = kernel.process(proc())
        kernel.run()
        assert p.value == "result"
        assert not p.is_alive

    def test_waiting_on_process(self, kernel):
        def child():
            yield kernel.timeout(30)
            return "child-result"

        def parent():
            v = yield kernel.process(child())
            return (kernel.now, v)

        p = kernel.process(parent())
        kernel.run()
        assert p.value == (30, "child-result")

    def test_unhandled_exception_propagates_from_run(self, kernel):
        def proc():
            yield kernel.timeout(1)
            raise ValueError("unhandled")

        kernel.process(proc())
        with pytest.raises(ValueError, match="unhandled"):
            kernel.run()

    def test_exception_delivered_to_waiter_instead(self, kernel):
        def child():
            yield kernel.timeout(1)
            raise ValueError("caught by parent")

        def parent():
            try:
                yield kernel.process(child())
            except ValueError:
                return "handled"

        p = kernel.process(parent())
        kernel.run()
        assert p.value == "handled"

    def test_non_generator_rejected(self, kernel):
        with pytest.raises(SimError):
            kernel.process(lambda: None)


class TestCombinators:
    def test_all_of_waits_for_slowest(self, kernel):
        def proc():
            vals = yield kernel.all_of(
                [kernel.timeout(10, "a"), kernel.timeout(30, "b"), kernel.timeout(20, "c")]
            )
            return (kernel.now, vals)

        p = kernel.process(proc())
        kernel.run()
        assert p.value == (30, ["a", "b", "c"])

    def test_all_of_empty_fires_immediately(self, kernel):
        def proc():
            vals = yield kernel.all_of([])
            return (kernel.now, vals)

        p = kernel.process(proc())
        kernel.run()
        assert p.value == (0, [])


class TestDeterminism:
    def test_fifo_order_at_same_instant(self, kernel):
        order = []

        def make(name):
            def proc():
                yield kernel.timeout(10)
                order.append(name)

            return proc

        for name in "abcde":
            kernel.process(make(name)())
        kernel.run()
        assert order == list("abcde")

    def test_two_runs_identical(self):
        def scenario():
            k = SimKernel()
            trace = []

            def worker(name, delay):
                yield k.timeout(delay)
                trace.append((k.now, name))
                yield k.timeout(delay)
                trace.append((k.now, name))

            for i in range(10):
                k.process(worker(f"w{i}", 3 + i % 4))
            k.run()
            return trace

        assert scenario() == scenario()
