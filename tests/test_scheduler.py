"""The event kernel's dispatch order, frames, ownership and pools.

Four layers of guarantees:

- property-based dispatch order (hypothesis): arbitrary kernel programs
  (timeouts, same-tick ties and cascades, urgent interrupts and urgent
  schedules mid-frame, zero-delay completions, ``call_after`` steps and
  step chains, steps that schedule urgent work, ``run(until=...)`` then
  resume, ``step()``) dispatch in exactly the order of an oracle that
  always picks the minimal ``(when, priority, seq)`` pending item, and
  every dispatched event or step counts once;
- same-tick fusion and urgent preemption of the live dispatch frame;
- explicit event ownership (``hold``/``release`` instead of a
  refcount-recycling heuristic), ``run(until=...)`` never
  fast-forwarding past a drained queue, and pooled ``Timeout`` reset
  being indistinguishable from construction.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Event, Interrupt, SimError, SimKernel, Timeout
from repro.engine.core import URGENT


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
    live = []
    interrupted = set()

    def sleeper(delay):
        try:
            yield k.timeout(delay)
        except Interrupt:
            pass

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

    def urgent_from_step(delay):
        ev = k.event()
        ev._triggered = True
        k._schedule(ev, 0 if delay % 2 else delay, URGENT)
        k.call_after(0, step_chain, 1)

    def driver():
        for kind, delay, gap in ops:
            if kind == 0:
                live.append(k.process(sleeper(delay)))
            elif kind == 1:  # same-tick tie: two sleepers, one wake tick
                live.append(k.process(sleeper(delay)))
                live.append(k.process(sleeper(delay)))
            elif kind == 2:  # same-tick cascade of zero-delay timeouts
                k.process(cascade(delay % 5 + 1))
            elif kind == 3:  # urgent interrupt of the oldest live sleeper
                target = next(
                    (p for p in live if p.is_alive and p not in interrupted),
                    None,
                )
                if target is not None:
                    interrupted.add(target)
                    target.interrupt(cause=delay)
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
    st.tuples(st.integers(0, 7), st.integers(0, 400),
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
        (5, 0, 0),
    ]
    k = _run_program(ops, [("step", 3), ("until", 6), ("step", 2),
                           ("until", 25), ("step", 5), ("until", 34)])
    assert k.dispatched == k.expected
    assert not k.pending
    assert k._events == len(k.dispatched) == k._seq
    assert len(k.dispatched) > 40  # the program actually did something
    assert k.steps >= 10
    # the oracle ran across several priorities and ticks
    assert {prio for _when, prio, _seq in k.dispatched} == {0, 1}


# ---------------------------------------------------------------------------
# same-tick fusion and urgent preemption
# ---------------------------------------------------------------------------


def test_same_tick_cascade_fuses_into_one_frame(kernel):
    done = []

    def chain(n):
        for _ in range(n):
            yield kernel.timeout(0)
        done.append(kernel.now)

    kernel.process(chain(10))
    kernel.run()
    assert done == [0]
    # one URGENT frame (the Initialize) plus one NORMAL frame holding
    # all ten zero-delay timeouts and the process-completion event —
    # fusion keeps the heap out of the cascade entirely
    assert kernel._frames == 2
    assert kernel._events == 12


def test_urgent_preempts_live_frame(kernel):
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
    # the urgent event outranks the rest of the tick-5 NORMAL frame: B's
    # wake is requeued and runs after it
    assert order == ["A", "U", "B"]


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


# ---------------------------------------------------------------------------
# regression: interrupts detach the process when they fire
# ---------------------------------------------------------------------------


class TestInterrupt:
    """``interrupt()`` used to detach the process from the event it was
    waiting on at the *call*.  A process that had not started yet (or
    that a same-instant urgent event resumed first) waited on another
    event by the time the interrupt fired; that event kept its resume
    callback and later resumed the process a second time.  Detaching
    happens when the interrupt fires now."""

    def test_interrupt_before_start(self, kernel):
        log = []

        def sleeper():
            try:
                yield kernel.timeout(5)
                log.append("woke")
            except Interrupt as exc:
                log.append(("interrupted", kernel.now, exc.cause))
                yield kernel.timeout(10)
                log.append(("slept", kernel.now))

        proc = kernel.process(sleeper())
        proc.interrupt(cause="early")
        kernel.run()
        # old kernel: the stale tick-5 wake resumed the second sleep
        assert log == [("interrupted", 0, "early"), ("slept", 10)]
        assert proc.ok

    def test_interrupt_detaches_an_immediate_resume(self, kernel):
        done = Event(kernel)
        done.succeed("v")
        kernel.run()
        log = []

        def waiter():
            try:
                yield done  # already processed: resumed by an urgent event
                log.append("got")
            except Interrupt:
                log.append(("interrupted", kernel.now))
                yield kernel.timeout(10)
                log.append(("slept", kernel.now))

        proc = kernel.process(waiter())
        proc.interrupt()
        kernel.run()
        assert log == [("interrupted", 0), ("slept", 10)]
        assert proc.ok

    def test_interrupt_of_process_that_finishes_first_is_dropped(self, kernel):
        def instant():
            return "done"
            yield  # a generator that finishes on its first resume

        proc = kernel.process(instant())
        proc.interrupt()  # fires after the start event has finished it
        kernel.run()  # old kernel: Interrupt escaped from run()
        assert proc.ok and proc.value == "done"


# ---------------------------------------------------------------------------
# regression: explicit event ownership (hold/release)
# ---------------------------------------------------------------------------


class TestEventOwnership:
    """The seed kernel recycled any event whose ``sys.getrefcount``
    dropped to 2 — a heuristic that broke the moment a callback stashed
    the event somewhere the counter couldn't see (a closure cell, a C
    extension, a debugger).  The kernel now recycles on an explicit
    ``_holds`` count; these tests pin both directions of that contract
    and fail on the heuristic kernel."""

    def test_unheld_kernel_events_are_recycled(self, kernel):
        ev = kernel.timeout(3)
        kernel.run()
        # LIFO pool: the spent timeout is reissued even though this
        # frame still holds a local reference to it (the refcount
        # heuristic would have refused — `ev` keeps the count above 2)
        assert kernel.timeout(1) is ev

    def test_held_event_value_survives_pool_churn(self, kernel):
        held = []
        first = kernel.timeout(5, value="original")
        first.callbacks.append(lambda ev: held.append(ev.hold()))
        kernel.run()

        def churn():
            for i in range(3 * SimKernel._POOL_MAX):
                yield kernel.timeout(1, value=("churn", i))

        kernel.process(churn())
        kernel.run()
        [ev] = held
        assert ev is first
        assert ev.value == "original"  # heuristic kernel: clobbered by reuse
        ev.release()
        # released and processed: back in the pool, reissued next
        assert kernel.timeout(1) is ev

    def test_release_without_hold_raises(self, kernel):
        ev = kernel.timeout(1)  # kernel-owned: zero holds to give back
        with pytest.raises(SimError, match="release"):
            ev.release()

    def test_directly_constructed_events_are_creator_owned(self, kernel):
        ev = Event(kernel)
        ev.succeed(value=7)
        kernel.run()
        assert ev.value == 7
        assert kernel.event() is not ev

    def test_pools_are_bounded(self, kernel):
        for _ in range(2 * SimKernel._POOL_MAX):
            kernel.timeout(1)
        kernel.run()
        assert len(kernel._timeout_pool) <= SimKernel._POOL_MAX


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


# ---------------------------------------------------------------------------
# property: pooled Timeouts are indistinguishable from fresh ones
# ---------------------------------------------------------------------------

_churn_ops = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 7)),
    min_size=1,
    max_size=40,
)


@settings(max_examples=100, deadline=None)
@given(_churn_ops, st.integers(0, 5), st.booleans())
def test_recycled_timeout_indistinguishable_from_fresh(ops, delay, use_value):
    """Drive the pool through varied lifecycles — plain fires, waited
    timeouts, interrupted waits, failed events, held survivors — then
    check the next factory timeout against a from-scratch construction."""
    k = SimKernel()
    for kind, d in ops:
        if kind == 0:
            k.timeout(d, value=("plain", d))
        elif kind == 1:
            def sleep(d=d):
                try:
                    yield k.timeout(d)
                except Interrupt:
                    pass

            proc = k.process(sleep())
            if d % 2:
                proc.interrupt(cause="churn")
        elif kind == 2:
            ev = k.event()

            def wait(ev=ev):
                try:
                    yield ev
                except RuntimeError:
                    pass

            k.process(wait())
            if d % 2:
                ev.fail(RuntimeError("churn"))
            else:
                ev.succeed(value=d)
        else:
            k.timeout(d, value="held").hold()  # never recycled
        k.run()

    value = ("fresh", delay) if use_value else None
    pooled = k.timeout(delay, value)
    fresh = Timeout(SimKernel(), delay, value)
    assert type(pooled) is Timeout
    for attr in ("delay", "_value", "_ok", "_triggered", "_processed"):
        assert getattr(pooled, attr) == getattr(fresh, attr), attr
    assert pooled.callbacks == []
    assert pooled._holds == 0  # factory events are kernel-owned


def test_pooled_timeout_rejects_negative_delay(kernel):
    kernel.timeout(1)
    kernel.run()
    assert kernel._timeout_pool  # the pooled path is the one under test
    with pytest.raises(SimError, match="negative"):
        kernel.timeout(-1)
