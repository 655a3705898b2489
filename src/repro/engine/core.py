"""Core of the discrete-event simulation kernel.

The kernel keeps pending ``(time, priority, sequence, item)`` entries in
one binary heap (:mod:`heapq`) that it owns.  An item is an
:class:`Event` or a *step*: a bare ``(fn, args)`` call scheduled by
:meth:`SimKernel.call_after`, the primitive of callback chains, which
dispatches as ``fn(*args)`` with no event behind it.  Time is an
integer tick count; ties are broken first by a priority (so a process
start or an immediate resume runs before normal timeouts at the same
instant) and then by scheduling order, which makes every simulation
fully deterministic.

Dispatch pops one item at a time: the heap minimum is removed, the
clock set to its time, and the item run — a step as ``fn(*args)``, an
event by its callbacks.  Everything pending, same-tick work scheduled
by the running item included, sits in the heap, so :meth:`SimKernel.peek`
and post-mortems see it.  A *frame* is a run of consecutively
dispatched items sharing one ``(time, priority)`` key; :meth:`SimKernel.run`
counts them for the ``engine.frames`` trace instant.

Processes are plain generator functions.  Each ``yield`` hands the kernel a
waitable :class:`Event`; the process is resumed with the event's value when
it fires (or the event's exception is thrown into the generator).  The
kernel never reissues an event, so an event keeps its identity and value
for as long as anyone holds it.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import (Any, Callable, Generator, Iterable, List, Optional, Tuple,
                    Union)

#: scheduling priorities (lower runs first at equal times)
URGENT = 0
NORMAL = 1


class SimError(Exception):
    """Base class for simulation kernel errors."""


class Event:
    """A waitable occurrence.

    Events move through three states: *pending* (created, not triggered),
    *triggered* (scheduled to fire, value set) and *processed* (callbacks
    have run).  Processes wait on events by yielding them.
    """

    __slots__ = (
        "kernel",
        "callbacks",
        "_value",
        "_ok",
        "_triggered",
        "_processed",
    )

    def __init__(self, kernel: "SimKernel"):
        self.kernel = kernel
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: bool = True
        self._triggered = False
        self._processed = False

    # -- state ----------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been given a value (success or failure)."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception, if it failed)."""
        return self._value

    # -- triggering -----------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with *value*, at the current tick."""
        if self._triggered:
            raise SimError(f"{self!r} already triggered")
        self._triggered = True
        self._ok = True
        self._value = value
        self.kernel._schedule(self, 0, NORMAL)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed; waiters get *exception* thrown."""
        if self._triggered:
            raise SimError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._triggered = True
        self._ok = False
        self._value = exception
        self.kernel._schedule(self, 0, NORMAL)
        return self

    # -- internal -------------------------------------------------------
    def _run_callbacks(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        self._processed = True
        if callbacks:
            for cb in callbacks:
                cb(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "processed" if self._processed else "triggered" if self._triggered else "pending"
        )
        return f"<{type(self).__name__} {state} at {hex(id(self))}>"


class Timeout(Event):
    """An event that fires *delay* ticks after creation."""

    __slots__ = ("delay",)

    def __init__(self, kernel: "SimKernel", delay: int, value: Any = None):
        if delay < 0:
            raise SimError(f"negative timeout delay {delay}")
        super().__init__(kernel)
        self.delay = delay
        self._triggered = True
        self._value = value
        kernel._schedule(self, delay, NORMAL)


class Initialize(Event):
    """Internal event used to start a freshly created process."""

    __slots__ = ()

    def __init__(self, kernel: "SimKernel", process: "Process"):
        super().__init__(kernel)
        self._triggered = True
        self._value = None
        self.callbacks.append(process._resume)
        kernel._schedule(self, 0, URGENT)


class Process(Event):
    """A running generator coroutine; also an event that fires on return.

    The value of the event is the generator's ``return`` value; if the
    generator raises, the process event fails with that exception (unless a
    waiter exists, the exception propagates out of :meth:`SimKernel.run`).
    """

    __slots__ = ("generator", "name")

    def __init__(self, kernel: "SimKernel", generator: Generator, name: Optional[str] = None):
        if not hasattr(generator, "throw"):
            raise SimError(f"{generator!r} is not a generator")
        super().__init__(kernel)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        Initialize(kernel, self)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return not self._triggered

    # -- resumption -----------------------------------------------------
    def _resume(self, event: Event) -> None:
        self._step(event, throw=not event.ok)

    def _step(self, event: Event, throw: bool) -> None:
        self.kernel._active_process = self
        try:
            if throw:
                target = self.generator.throw(event.value)
            else:
                target = self.generator.send(event.value)
        except StopIteration as stop:
            self._triggered = True
            self._ok = True
            self._value = stop.value
            self.kernel._schedule(self, 0, NORMAL)
            return
        except BaseException as exc:
            self._triggered = True
            self._ok = False
            self._value = exc
            if self.callbacks:
                self.kernel._schedule(self, 0, NORMAL)
            else:
                # nobody is waiting: surface the failure from run()
                self.kernel._crash = exc
            return
        finally:
            self.kernel._active_process = None

        if not isinstance(target, Event):
            raise SimError(
                f"process {self.name!r} yielded {target!r}, which is not an Event"
            )
        if target.callbacks is None:
            # already processed: resume immediately at the current instant
            immediate = Event(self.kernel)
            immediate._triggered = True
            immediate._ok = target.ok
            immediate._value = target.value
            immediate.callbacks.append(self._resume)
            self.kernel._schedule(immediate, 0, URGENT)
        else:
            target.callbacks.append(self._resume)


class AllOf(Event):
    """Fires when every child event has fired; value is the list of values.

    Fails as soon as any child fails.
    """

    __slots__ = ("events", "_pending")

    def __init__(self, kernel: "SimKernel", events: Iterable[Event]):
        super().__init__(kernel)
        self.events = list(events)
        self._pending = 0
        failed: Optional[Event] = None
        for ev in self.events:
            if ev.callbacks is None:  # already processed
                if not ev.ok and failed is None:
                    failed = ev
                continue
            self._pending += 1
            ev.callbacks.append(self._child_fired)
        if failed is not None:
            self.fail(failed.value)
        elif self._pending == 0:
            self.succeed([ev.value for ev in self.events])

    def _child_fired(self, event: Event) -> None:
        if self._triggered:
            return
        if not event.ok:
            self.fail(event.value)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed([ev.value for ev in self.events])


#: the kernel currently inside :meth:`SimKernel.run`, if any.  The hang
#: watchdog (:mod:`repro.checkpoint`) samples this from its own thread to
#: tell "the event loop is stalled" apart from "the host is doing slow
#: non-simulation work"; one global assignment per run() call keeps the
#: hot loop untouched.
_active_kernel: Optional["SimKernel"] = None


def active_kernel() -> Optional["SimKernel"]:
    """The kernel currently executing run(), or None between runs."""
    return _active_kernel


#: a scheduled bare call: ``(fn, args)``, dispatched as ``fn(*args)``
Step = Tuple[Callable[..., None], tuple]

#: one pending heap entry: ``(when, priority, seq, item)``, the item an
#: :class:`Event` or a :data:`Step` (the dispatch loop tells them apart
#: by class)
Entry = Tuple[int, int, int, Any]


def item_name(item: Union[Event, Step]) -> str:
    """What a pending heap item is, for audits and post-mortems: an
    event's class name, or the qualified name of a step's function."""
    if isinstance(item, tuple):
        fn = item[0]
        return getattr(fn, "__qualname__", None) or repr(fn)
    return type(item).__name__


class SimKernel:
    """The event loop: a virtual clock plus the heap of pending events.

    >>> k = SimKernel()
    >>> def proc():
    ...     yield k.timeout(10)
    ...     return k.now
    >>> p = k.process(proc())
    >>> k.run()
    >>> p.value
    10
    """

    __slots__ = (
        "_queue",
        "_seq",
        "_now",
        "_active_process",
        "_crash",
        "_frames",
        "_events",
    )

    def __init__(self) -> None:
        self._queue: List[Entry] = []
        self._seq = 0
        self._now = 0
        self._active_process: Optional[Process] = None
        self._crash: Optional[BaseException] = None
        self._frames = 0
        self._events = 0

    # -- clock ----------------------------------------------------------
    @property
    def now(self) -> int:
        """Current simulated time in ticks."""
        return self._now

    # -- event factories --------------------------------------------------
    def event(self) -> Event:
        """Create a new untriggered event."""
        return Event(self)

    def timeout(self, delay: int, value: Any = None) -> Timeout:
        """Create an event firing after *delay* ticks."""
        return Timeout(self, int(delay), value)

    def call_after(self, delay: int, fn: Callable[..., None], *args: Any) -> None:
        """Run ``fn(*args)`` *delay* ticks from now: one heap entry and
        no event or process — the step primitive of callback chains.

        A step dispatches in the same ``(when, priority, seq)`` order an
        event scheduled here would, and counts as one dispatched event.
        A negative *delay* raises :class:`SimError`: time cannot run
        backwards.
        """
        if delay < 0:
            raise SimError(f"negative call_after delay {delay}")
        self._schedule((fn, args), delay, NORMAL)

    def process(self, generator: Generator, name: Optional[str] = None) -> Process:
        """Start *generator* as a simulation process."""
        return Process(self, generator, name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Wait for all of *events*."""
        return AllOf(self, events)

    # -- scheduling -------------------------------------------------------
    def _schedule(self, event: Union[Event, Step], delay: int,
                  priority: int) -> None:
        seq = self._seq = self._seq + 1
        heappush(self._queue, (self._now + int(delay), priority, seq, event))

    def peek(self) -> Optional[int]:
        """Time of the next scheduled event, or None if the queue is empty."""
        queue = self._queue
        return queue[0][0] if queue else None

    def step(self) -> None:
        """Process the single next event (or step) as one frame."""
        if not self._queue:
            raise SimError("step() on an empty event queue")
        when, _prio, _seq, event = heappop(self._queue)
        self._now = when
        self._frames += 1
        self._events += 1
        if event.__class__ is tuple:
            event[0](*event[1])
            return
        event._run_callbacks()
        crash = self._crash
        if crash is not None:
            self._crash = None
            raise crash

    def run(self, until: Optional[int] = None) -> None:
        """Run until the queue drains or the clock passes *until* ticks.

        If the queue drains before *until*, the clock stays at the last
        processed event's time — it never fast-forwards past work that
        doesn't exist (checkpoints taken after such a run must record a
        tick some event actually reached).

        If a process dies with an unhandled exception and no other process
        is waiting on it, the exception propagates out of ``run()``.

        When a tracer is installed (:mod:`repro.trace`) the whole run is
        wrapped in one ``engine.run`` span and a closing ``engine.frames``
        instant records how many items and frames (runs of one
        ``(time, priority)`` key) it dispatched — never per-event
        instrumentation, which would touch the hot loop.
        """
        from repro import trace

        tracer = trace.active()
        if tracer is None:
            return self._run_loop(until)
        frames0, events0 = self._frames, self._events
        with tracer.span("engine.run", track="kernel",
                         pending=len(self._queue)):
            result = self._run_loop(until)
            tracer.instant("engine.frames", track="kernel",
                           frames=self._frames - frames0,
                           events=self._events - events0)
            return result

    def _run_loop(self, until: Optional[int] = None) -> None:
        """The actual event loop (see :meth:`run`).

        The dispatch is inlined — the per-event bookkeeping is the
        simulator's hottest code, and method calls plus repeated
        attribute loads are measurable at millions of events.
        """
        if until is not None and until < self._now:
            raise SimError(f"until={until} is in the past (now={self._now})")
        global _active_kernel
        _active_kernel = self
        frames = 0
        events = 0
        # the key of the frame being dispatched; (-1, -1) matches no entry
        frame_when = frame_prio = -1
        queue = self._queue
        try:
            while queue:
                if until is not None and queue[0][0] > until:
                    self._now = until
                    return
                when, prio, _seq, event = heappop(queue)
                events += 1
                if when != frame_when or prio != frame_prio:
                    frames += 1
                    frame_when = when
                    frame_prio = prio
                    self._now = when
                if event.__class__ is tuple:
                    event[0](*event[1])
                    continue
                callbacks = event.callbacks
                event.callbacks = None
                event._processed = True
                if callbacks:
                    for cb in callbacks:
                        cb(event)
                if self._crash is not None:
                    exc, self._crash = self._crash, None
                    raise exc
        finally:
            self._frames += frames
            self._events += events
            _active_kernel = None
