"""The event kernel's dispatch order, frames and pending work.

Three layers of guarantees:

- property-based dispatch order (hypothesis): arbitrary kernel programs
  (timeouts, same-tick ties and cascades, urgent schedules now and
  later, urgent cascades, zero-delay completions, ``call_after`` steps
  and step chains, steps that schedule urgent work, ``run(until=...)``
  then resume, ``step()``) dispatch in exactly the order of an oracle
  that always picks the minimal ``(when, priority, seq)`` pending item,
  and every dispatched event or step counts once; a step asked for in
  the past is refused and never scheduled;
- the frame count (runs of one ``(when, priority)`` key) and urgent
  work running first within a tick;
- every pending item visible in the heap while a dispatch runs
  (``peek()``, ``checkpoint.pending_work``), events keeping their
  identity and value after dispatch, and ``run(until=...)`` never
  fast-forwarding past a drained queue.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import checkpoint
from repro.engine import Event, SimError, SimKernel
from repro.engine.core import URGENT
from repro.systems import Cluster, presets


@pytest.fixture
def kernel():
    return SimKernel()


# ---------------------------------------------------------------------------
# property: dispatch order == minimal (when, priority, seq) oracle
# ---------------------------------------------------------------------------


class OracleKernel(SimKernel):
    """A kernel that mirrors every schedule into an oracle.

    Each scheduled event gets an observer as its first callback, and
    each scheduled step is wrapped in one, so the observer runs the
    moment the kernel dispatches the item.  At that moment the oracle's
    choice is the minimal ``(when, priority, seq)`` among all items
    scheduled and not yet dispatched; the kernel's choice is the item
    being dispatched, stamped with the clock.
    """

    def __init__(self):
        super().__init__()
        self.pending = {}  # event or step token -> (when, priority, seq)
        self.dispatched = []
        self.expected = []
        self.steps = 0  # dispatched call_after steps
        self.refused = 0  # negative-delay call_after requests refused

    def _schedule(self, event, delay, priority):
        if event.__class__ is tuple:  # a call_after step
            key = object()
            event = (self._observe_step, (key, *event))
        else:
            key = event
        super()._schedule(event, delay, priority)
        self.pending[key] = (self._now + int(delay), priority, self._seq)
        if key is event:
            event.callbacks.insert(0, self._observe)

    def _observe(self, key):
        self.expected.append(min(self.pending.values()))
        _when, priority, seq = self.pending.pop(key)
        self.dispatched.append((self._now, priority, seq))

    def _observe_step(self, key, fn, args):
        self._observe(key)
        self.steps += 1
        fn(*args)


def _run_program(ops, control):
    """Execute one op-list program under *control*, then drain; return
    the kernel so the caller can compare its two dispatch logs."""
    k = OracleKernel()

    def sleeper(delay):
        yield k.timeout(delay)

    def cascade(n):
        for _ in range(n):
            yield k.timeout(0)

    def waiter(ev):
        try:
            yield ev
        except RuntimeError:
            pass

    def step_chain(n):
        # each step schedules the next, often for the tick it runs in
        if n:
            k.call_after(n % 3, step_chain, n - 1)

    def urgent(delay, then=None):
        ev = k.event()
        ev._triggered = True
        if then is not None:
            ev.callbacks.append(then)
        k._schedule(ev, delay, URGENT)

    def urgent_from_step(delay):
        urgent(0 if delay % 2 else delay)
        k.call_after(0, step_chain, 1)

    def urgent_cascade(_ev):
        # urgent work scheduled by urgent work at the same tick, with a
        # NORMAL step queued behind both
        urgent(0)
        k.call_after(0, step_chain, 1)

    def driver():
        for kind, delay, gap in ops:
            if kind == 0:
                k.process(sleeper(delay))
            elif kind == 1:  # same-tick tie: two sleepers, one wake tick
                k.process(sleeper(delay))
                k.process(sleeper(delay))
            elif kind == 2:  # same-tick cascade of zero-delay timeouts
                k.process(cascade(delay % 5 + 1))
            elif kind == 3:  # urgent schedules at one tick, one cascading
                urgent(delay % 3, urgent_cascade)
                urgent(delay % 3)
            elif kind == 4:  # zero-delay completion racing the frame
                ev = k.event()
                k.process(waiter(ev))
                if delay % 2:
                    ev.fail(RuntimeError("boom"))
                else:
                    ev.succeed(value=delay)
            elif kind == 6:  # a chain of call_after steps
                k.call_after(delay % 7, step_chain, delay % 4)
            elif kind == 7:  # a step scheduling urgent work: preemption
                k.call_after(delay % 5, urgent_from_step, delay)
            elif kind == 8:  # a step in the past: refused, not scheduled
                seq = k._seq
                try:
                    k.call_after(-1 - delay % 5, step_chain, 1)
                except SimError:
                    if k._seq == seq:
                        k.refused += 1
            else:  # a raw urgent schedule: now (mid-frame) or later
                ev = k.event()
                ev._triggered = True
                k._schedule(ev, 0 if delay % 2 else delay, URGENT)
            if gap:
                yield k.timeout(gap)

    k.process(driver(), name="driver")
    for action, arg in control:
        if action == "until":
            k.run(until=k.now + arg)
        else:
            for _ in range(arg):
                if k.peek() is None:
                    break
                k.step()
    k.run()
    return k


# a gap of 0 keeps the driver scheduling within one tick, where the
# priority and sequence tie-breaks decide the order
_programs = st.lists(
    st.tuples(st.integers(0, 8), st.integers(0, 400),
              st.one_of(st.just(0), st.integers(0, 50))),
    min_size=1,
    max_size=25,
)

_controls = st.lists(
    st.one_of(
        st.tuples(st.just("until"), st.integers(0, 600)),
        st.tuples(st.just("step"), st.integers(1, 12)),
    ),
    min_size=1,
    max_size=6,
)


@settings(max_examples=100, deadline=None)
@given(_programs, _controls)
def test_dispatch_order_matches_oracle(ops, control):
    k = _run_program(ops, control)
    assert k.dispatched == k.expected
    assert not k.pending and k.peek() is None
    assert k._events == len(k.dispatched) == k._seq
    assert k.refused == sum(1 for kind, _delay, _gap in ops if kind == 8)


def test_dispatch_order_matches_oracle_reference_program():
    """A fixed program touching every op kind and both controls — runs
    without hypothesis so a plain ``pytest tests/test_scheduler.py``
    still pins the order."""
    ops = [
        (4, 0, 0),  # a NORMAL completion at tick 0 ...
        (0, 10, 5),  # ... then a later-seq URGENT start at tick 0
        (1, 7, 0),
        (4, 3, 2),
        (2, 3, 0),
        (5, 1, 0),
        (3, 0, 4),
        (1, 0, 0),
        (5, 40, 9),
        (4, 2, 9),
        (3, 0, 0),
        (0, 0, 30),
        (2, 1, 0),
        (6, 3, 0),  # steps at tick 33, 35 and 36 ...
        (7, 2, 0),  # ... a step at 32 scheduling urgent work at 32 ...
        (0, 0, 0),  # ... while a process starts at the current tick
        (6, 14, 3),
        (7, 3, 1),
        (8, 2, 0),  # a step two ticks in the past: refused
        (5, 0, 0),
    ]
    k = _run_program(ops, [("step", 3), ("until", 6), ("step", 2),
                           ("until", 25), ("step", 5), ("until", 34)])
    assert k.dispatched == k.expected
    assert not k.pending
    assert k._events == len(k.dispatched) == k._seq
    assert len(k.dispatched) > 40  # the program actually did something
    assert k.steps >= 10
    assert k.refused == 1
    # the oracle ran across several priorities and ticks
    assert {prio for _when, prio, _seq in k.dispatched} == {0, 1}


# ---------------------------------------------------------------------------
# frames and urgent-first order
# ---------------------------------------------------------------------------


def test_same_tick_cascade_counts_as_one_frame(kernel):
    done = []

    def chain(n):
        for _ in range(n):
            yield kernel.timeout(0)
        done.append(kernel.now)

    kernel.process(chain(10))
    kernel.run()
    assert done == [0]
    # one URGENT frame (the Initialize) plus one NORMAL frame holding
    # all ten zero-delay timeouts and the process-completion event
    assert kernel._frames == 2
    assert kernel._events == 12


def test_urgent_runs_first_within_a_tick(kernel):
    order = []

    def a():
        yield kernel.timeout(5)
        order.append("A")
        ev = kernel.event()
        ev._triggered = True
        ev.callbacks.append(lambda _ev: order.append("U"))
        kernel._schedule(ev, 0, URGENT)

    def b():
        yield kernel.timeout(5)
        order.append("B")

    kernel.process(a())
    kernel.process(b())
    kernel.run()
    # the urgent event outranks B's NORMAL wake at the same tick
    assert order == ["A", "U", "B"]
    # the tick-5 NORMAL run is split by the urgent one: the starts, A,
    # U, then B and both completions
    assert kernel._frames == 4


def test_fused_events_observe_monotonic_clock(kernel):
    stamps = []

    def p(delay):
        yield kernel.timeout(delay)
        stamps.append(kernel.now)
        yield kernel.timeout(0)
        stamps.append(kernel.now)

    kernel.process(p(3))
    kernel.process(p(3))
    kernel.run()
    assert stamps == [3, 3, 3, 3]


def test_step_counts_one_frame_per_call(kernel):
    kernel.timeout(1)
    kernel.timeout(1)
    kernel.step()
    kernel.step()
    assert kernel._frames == kernel._events == 2


# ---------------------------------------------------------------------------
# pending work is visible mid-dispatch
# ---------------------------------------------------------------------------


class TestPendingWork:
    """Every pending item sits in the heap while a dispatch runs: a
    same-tick step scheduled by the running one shows in ``peek()`` and
    in the post-mortem's pending work before it runs."""

    def test_peek_sees_same_tick_step(self, kernel):
        seen = []

        def b():
            seen.append(("b", kernel.now))

        def a():
            kernel.call_after(0, b)
            seen.append((kernel.peek(), len(kernel._queue)))

        kernel.call_after(5, a)
        kernel.run()
        assert seen == [(5, 1), ("b", 5)]

    def test_pending_work_sees_same_tick_step(self):
        cluster = Cluster(presets.opteron_infinihost_pcie(), 1)
        k = cluster.kernel
        seen = []

        def a():
            k.call_after(0, seen.append, "b")
            seen.append(checkpoint.pending_work(cluster))

        k.call_after(5, a)
        k.run()
        assert seen == [["1 events pending in the event heap"], "b"]


# ---------------------------------------------------------------------------
# events keep their identity and value
# ---------------------------------------------------------------------------


class TestEventOwnership:
    """The kernel never reissues an event: whoever keeps a reference to
    one — a callback's stash, a closure cell — reads the value it fired
    with, however much later work runs."""

    def test_processed_event_keeps_identity_and_value(self, kernel):
        kept = []
        first = kernel.timeout(5, value="original")
        first.callbacks.append(kept.append)
        kernel.run()

        def churn():
            for i in range(3 * 256):
                yield kernel.timeout(1, value=("churn", i))

        kernel.process(churn())
        kernel.run()
        [ev] = kept
        assert ev is first
        assert ev.value == "original" and ev.processed
        assert kernel.timeout(1) is not ev

    def test_directly_constructed_events_are_creator_owned(self, kernel):
        ev = Event(kernel)
        ev.succeed(value=7)
        kernel.run()
        assert ev.value == 7
        assert kernel.event() is not ev


# ---------------------------------------------------------------------------
# regression: run(until=...) vs a drained queue
# ---------------------------------------------------------------------------


class TestRunUntil:
    """``run(until=T)`` used to fast-forward the clock to T even when
    the queue drained earlier — so a checkpoint taken afterwards stamped
    a tick no event ever reached."""

    def test_clock_stays_at_drain_time(self, kernel):
        def p():
            yield kernel.timeout(10)

        kernel.process(p())
        kernel.run(until=1000)
        assert kernel.now == 10  # not 1000

    def test_clock_advances_to_until_when_work_remains(self, kernel):
        kernel.timeout(10)
        kernel.timeout(2000)
        kernel.run(until=1000)
        assert kernel.now == 1000
        assert kernel.peek() == 2000

    def test_until_in_past_raises(self, kernel):
        kernel.timeout(5)
        kernel.run()
        with pytest.raises(SimError, match="in the past"):
            kernel.run(until=2)

    def test_resume_after_early_stop(self, kernel):
        order = []

        def p():
            yield kernel.timeout(10)
            order.append(kernel.now)
            yield kernel.timeout(2000)
            order.append(kernel.now)

        kernel.process(p())
        kernel.run(until=1000)
        assert kernel.now == 1000
        kernel.run()
        assert order == [10, 2010]

    def test_spawn_after_early_stop(self, kernel):
        """New work scheduled after an early stop lands below the
        still-pending event and must dispatch first."""
        hits = []

        def late():
            yield kernel.timeout(2000)
            hits.append(kernel.now)

        kernel.process(late())
        kernel.run(until=1000)
        assert kernel.now == 1000

        def early():
            yield kernel.timeout(5)
            hits.append(kernel.now)

        kernel.process(early())
        kernel.run()
        assert hits == [1005, 2000]
