"""Unit tests for Resource, Store and Channel (repro.engine.resources)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Channel, Resource, SimError, SimKernel, Store


@pytest.fixture
def kernel():
    return SimKernel()


class TestResource:
    def test_grant_within_capacity(self, kernel):
        res = Resource(kernel, capacity=2)
        grants = []

        def user(name):
            yield res.request()
            grants.append((kernel.now, name))
            yield kernel.timeout(10)
            res.release()

        kernel.process(user("a"))
        kernel.process(user("b"))
        kernel.run()
        assert grants == [(0, "a"), (0, "b")]

    def test_fifo_queueing(self, kernel):
        res = Resource(kernel, capacity=1)
        grants = []

        def user(name, hold):
            yield res.request()
            grants.append((kernel.now, name))
            yield kernel.timeout(hold)
            res.release()

        kernel.process(user("a", 10))
        kernel.process(user("b", 10))
        kernel.process(user("c", 10))
        kernel.run()
        assert grants == [(0, "a"), (10, "b"), (20, "c")]

    def test_release_without_request_rejected(self, kernel):
        res = Resource(kernel)
        with pytest.raises(SimError):
            res.release()

    def test_capacity_validation(self, kernel):
        with pytest.raises(SimError):
            Resource(kernel, capacity=0)

    def test_queue_length_visible(self, kernel):
        res = Resource(kernel, capacity=1)
        res.request()
        res.request()
        res.request()
        assert res.in_use == 1
        assert res.queue_length == 2


class TestAcquireThen:
    def test_free_slot_runs_synchronously(self, kernel):
        res = Resource(kernel, capacity=1)
        ran = []
        res.acquire_then(ran.append, "a")
        # granted inside the call, with no kernel event behind it
        assert ran == ["a"]
        assert res.in_use == 1
        assert res.queue_length == 0

    def test_contended_callbacks_run_in_fifo_order(self, kernel):
        res = Resource(kernel, capacity=1)
        grants = []

        def hold(name, ticks):
            grants.append((kernel.now, name))
            kernel.call_after(ticks, res.release)

        res.acquire_then(hold, "a", 10)
        res.acquire_then(hold, "b", 5)
        res.acquire_then(hold, "c", 1)
        assert res.queue_length == 2
        kernel.run()
        assert grants == [(0, "a"), (10, "b"), (15, "c")]
        assert res.in_use == 0

    def test_waits_behind_a_process_request(self, kernel):
        """Callback and process waiters share one FIFO queue."""
        res = Resource(kernel, capacity=1)
        order = []
        assert res.try_acquire()

        def proc():
            yield res.request()
            order.append("process")
            res.release()

        kernel.process(proc())
        kernel.run()
        res.acquire_then(order.append, "callback")
        res.release()
        kernel.run()
        assert order == ["process", "callback"]


class TestStore:
    def test_put_then_get(self, kernel):
        store = Store(kernel)
        got = []

        def consumer():
            item = yield store.get()
            got.append((kernel.now, item))

        def producer():
            yield kernel.timeout(5)
            store.put("x")

        kernel.process(consumer())
        kernel.process(producer())
        kernel.run()
        assert got == [(5, "x")]

    def test_get_before_put_blocks(self, kernel):
        store = Store(kernel)
        order = []

        def consumer():
            item = yield store.get()
            order.append(item)

        kernel.process(consumer())
        kernel.run()
        assert order == []  # still blocked
        store.put("late")
        kernel.run()
        assert order == ["late"]

    def test_fifo_item_order(self, kernel):
        store = Store(kernel)
        for i in range(5):
            store.put(i)
        got = []

        def consumer():
            for _ in range(5):
                item = yield store.get()
                got.append(item)

        kernel.process(consumer())
        kernel.run()
        assert got == [0, 1, 2, 3, 4]

    def test_capacity_blocks_put(self, kernel):
        store = Store(kernel, capacity=1)
        ev1 = store.put("a")
        ev2 = store.put("b")
        assert ev1.triggered
        assert not ev2.triggered
        done = []

        def consumer():
            x = yield store.get()
            done.append(x)

        kernel.process(consumer())
        kernel.run()
        assert done == ["a"]
        assert ev2.triggered  # freed slot accepted the queued put
        assert store.items == ("b",)

    def test_len_and_items(self, kernel):
        store = Store(kernel)
        store.put(1)
        store.put(2)
        assert len(store) == 2
        assert store.items == (1, 2)


class _QueueThenDispatchStore(Store):
    """The model: every item is queued, then matched by ``_dispatch``
    (the forms the direct hand-offs in :meth:`Store.put_nowait` and
    :meth:`Store.get_then` shortcut)."""

    __slots__ = ()

    def put_nowait(self, item):
        if self.capacity is not None and len(self._items) >= self.capacity:
            return False
        self._items.append(item)
        if self._getters:
            self._dispatch()
        return True

    def get_then(self, callback):
        self._getters.append(callback)
        if self._items:
            self._dispatch()


def _drive_store(store_cls, capacity, program):
    """Run *program* on a fresh store; returns the delivery log and the
    final state.  Getters are numbered in creation order, so the log
    shows which getter received which item, and when."""
    kernel = SimKernel()
    store = store_cls(kernel, capacity=capacity)
    log = []
    ids = iter(range(10**6))

    def callback_getter(mode):
        gid = next(ids)

        def got(item):
            log.append(("cb", gid, item, kernel.now))
            if mode == 0:  # a chain step that feeds the store again
                if not store.put_nowait(item + 1000):
                    store.put(item + 1000)
            elif mode == 1:  # a chain that re-arms, like a send engine
                store.get_then(callback_getter(2))
        return got

    for op, arg in program:
        if op == "put_nowait":
            log.append(("put_nowait", arg, store.put_nowait(arg)))
        elif op == "put":
            gid = next(ids)
            store.put(arg).callbacks.append(
                lambda _ev, gid=gid: log.append(("accepted", gid, kernel.now)))
        elif op == "get":
            gid = next(ids)
            store.get().callbacks.append(
                lambda ev, gid=gid: log.append(("ev", gid, ev.value, kernel.now)))
        elif op == "get_then":
            store.get_then(callback_getter(arg % 3))
        elif op == "try_get":
            log.append(("try_get", store.try_get()))
        else:  # let queued events fire, then move the clock on
            kernel.run()
            kernel.timeout(arg)
            kernel.run()
    kernel.run()
    return log, store.items, len(store._getters), len(store._putters)


_store_programs = st.lists(
    st.tuples(
        st.sampled_from(["put_nowait", "put", "get", "get_then", "try_get", "run"]),
        st.integers(0, 20),
    ),
    max_size=40,
)


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.none(), st.integers(1, 3)), _store_programs)
def test_store_hand_off_keeps_fifo_order(capacity, program):
    """Model-based: the direct hand-offs deliver every item to the same
    getter at the same tick as queue-then-dispatch, across event
    getters, callback getters (some of which put again or re-arm) and
    putters blocked on a full store."""
    assert (_drive_store(Store, capacity, program)
            == _drive_store(_QueueThenDispatchStore, capacity, program))


class TestChannel:
    def test_unfiltered_delivery(self, kernel):
        ch = Channel(kernel)
        got = []

        def receiver():
            msg = yield ch.receive()
            got.append(msg)

        kernel.process(receiver())
        kernel.run()
        ch.send("hello")
        kernel.run()
        assert got == ["hello"]

    def test_message_queues_without_receiver(self, kernel):
        ch = Channel(kernel)
        ch.send("early")
        assert ch.pending_messages == 1
        got = []

        def receiver():
            msg = yield ch.receive()
            got.append(msg)

        kernel.process(receiver())
        kernel.run()
        assert got == ["early"]
        assert ch.pending_messages == 0

    def test_predicate_matching(self, kernel):
        ch = Channel(kernel)
        got = []

        def receiver(tag):
            msg = yield ch.receive(lambda m: m["tag"] == tag)
            got.append((tag, msg["body"]))

        kernel.process(receiver(7))
        kernel.process(receiver(3))
        kernel.run()
        ch.send({"tag": 3, "body": "three"})
        ch.send({"tag": 7, "body": "seven"})
        kernel.run()
        assert sorted(got) == [(3, "three"), (7, "seven")]

    def test_unmatched_message_stays_queued(self, kernel):
        ch = Channel(kernel)

        def receiver():
            yield ch.receive(lambda m: m == "wanted")

        kernel.process(receiver())
        kernel.run()
        ch.send("unwanted")
        kernel.run()
        assert ch.pending_messages == 1
        assert ch.pending_receivers == 1
        ch.send("wanted")
        kernel.run()
        assert ch.pending_receivers == 0
        assert ch.pending_messages == 1

    def test_oldest_matching_message_first(self, kernel):
        ch = Channel(kernel)
        ch.send(("t", 1))
        ch.send(("t", 2))
        got = []

        def receiver():
            m = yield ch.receive(lambda m: m[0] == "t")
            got.append(m)

        kernel.process(receiver())
        kernel.run()
        assert got == [("t", 1)]
