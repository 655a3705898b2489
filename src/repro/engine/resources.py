"""Synchronisation primitives built on the DES kernel.

- :class:`Resource` — a counted resource with FIFO request queue (used to
  model exclusive units such as the bus DMA engine or a doorbell register).
- :class:`Store` — a buffered FIFO of items with optional capacity (used
  for work queues and completion queues).
- :class:`Channel` — a message channel with optional filtering on receive
  (used for MPI message matching by ``(source, tag)``).

Both queues take two kinds of waiter: an event (``get()``/``receive()``,
for processes that ``yield`` it) and a plain callback (``get_then()``/
``receive_then()``, for callback chains).  An item handed to a callback
is delivered synchronously, inside the put or send that made it
available, so a chain waiting on a queue costs no kernel event.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Optional, Union

from repro.engine.core import Event, SimError, SimKernel

#: a waiting consumer: an event to succeed with the item, or a callback
#: to call with it (the callback form costs no kernel event)
Waiter = Union[Event, Callable[[Any], None]]


class Resource:
    """A resource with *capacity* slots and FIFO granting.

    Usage inside a process::

        req = resource.request()
        yield req
        ...critical section...
        resource.release()
    """

    __slots__ = ("kernel", "capacity", "_in_use", "_waiters")

    def __init__(self, kernel: SimKernel, capacity: int = 1):
        if capacity < 1:
            raise SimError(f"Resource capacity must be >= 1, got {capacity}")
        self.kernel = kernel
        self.capacity = capacity
        self._in_use = 0
        self._waiters: Deque[Event] = deque()

    @property
    def in_use(self) -> int:
        """Number of currently held slots."""
        return self._in_use

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._waiters)

    def request(self) -> Event:
        """Return an event that fires when a slot is granted."""
        ev = self.kernel.event()
        if self._in_use < self.capacity:
            self._in_use += 1
            ev.succeed()
        else:
            self._waiters.append(ev)
        return ev

    def try_acquire(self) -> bool:
        """Take a free slot synchronously; False when none is free.

        Equivalent to :meth:`request` succeeding immediately, minus the
        grant event — the caller continues in the same dispatch frame it
        would have resumed in, so uncontended acquisition costs no kernel
        event.  On False the caller must fall back to ``yield request()``
        (or queue a callback on it); the slot state is untouched.
        """
        if self._in_use < self.capacity:
            self._in_use += 1
            return True
        return False

    def acquire_then(self, fn: Callable[..., None], *args: Any) -> None:
        """Callback form of :meth:`request`: ``fn(*args)`` runs holding a
        slot — at once when :meth:`try_acquire` succeeds, else when
        :meth:`release` grants the slot, in FIFO order with every other
        request."""
        if self._in_use < self.capacity:
            self._in_use += 1
            fn(*args)
        else:  # what request() queues when no slot is free
            ev = self.kernel.event()
            ev.callbacks.append(lambda _ev: fn(*args))
            self._waiters.append(ev)

    def release(self) -> None:
        """Release one held slot, granting the oldest live waiter.

        A queued request whose event has no callbacks was abandoned (its
        process was interrupted while waiting and will never take the
        grant); handing it the slot would leak the slot forever, so such
        requests are skipped.
        """
        if self._in_use <= 0:
            raise SimError("release() without a matching request()")
        while self._waiters:
            waiter = self._waiters.popleft()
            if waiter.callbacks:
                # hand the slot straight to the next live waiter
                waiter.succeed()
                return
        self._in_use -= 1


class Store:
    """A FIFO store of items with optional capacity.

    ``put(item)`` and ``get()`` both return events.  Puts block (stay
    untriggered) while the store is full; gets block while it is empty.
    """

    __slots__ = ("kernel", "capacity", "_items", "_getters", "_putters")

    def __init__(self, kernel: SimKernel, capacity: Optional[int] = None):
        if capacity is not None and capacity < 1:
            raise SimError(f"Store capacity must be >= 1, got {capacity}")
        self.kernel = kernel
        self.capacity = capacity
        self._items: Deque[Any] = deque()
        self._getters: Deque[Waiter] = deque()
        self._putters: Deque[tuple] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> tuple:
        """Snapshot of queued items (oldest first)."""
        return tuple(self._items)

    def put(self, item: Any) -> Event:
        """Enqueue *item*; the returned event fires once it is accepted."""
        ev = self.kernel.event()
        if self.capacity is None or len(self._items) < self.capacity:
            self._items.append(item)
            ev.succeed()
            self._dispatch()
        else:
            self._putters.append((ev, item))
        return ev

    def put_nowait(self, item: Any) -> bool:
        """Enqueue *item* without creating a put event; False when full.

        The fire-and-forget half of :meth:`put`: producers that never
        wait on the put (work queues, completion queues) otherwise pay a
        kernel event per item whose only job is to be dispatched empty.
        Waiting getters are served exactly as :meth:`put` would serve
        them.  On False (store full) nothing is enqueued and the caller
        must fall back to ``put()`` to queue as a putter.

        Into an empty store with a callback waiting first, the item goes
        straight to that callback (what :meth:`_dispatch` would do after
        queueing it; an empty store has no blocked putters to admit).
        """
        items = self._items
        if self.capacity is not None and len(items) >= self.capacity:
            return False
        getters = self._getters
        if getters:
            if not items and not isinstance(getters[0], Event):
                getters.popleft()(item)
                return True
            items.append(item)
            self._dispatch()
            return True
        items.append(item)
        return True

    def get(self) -> Event:
        """Dequeue an item; the returned event fires with the item."""
        ev = self.kernel.event()
        self._getters.append(ev)
        self._dispatch()
        return ev

    def get_then(self, callback: Callable[[Any], None]) -> None:
        """Callback form of :meth:`get`: *callback(item)* runs as soon as
        an item is available — at once when one is queued and no earlier
        getter waits — in FIFO order with event getters."""
        items = self._items
        if items and not self._getters:
            # served at once: what _dispatch would do for this getter
            item = items.popleft()
            if self._putters:
                self._admit_putters()
            callback(item)
            return
        self._getters.append(callback)
        if items:
            self._dispatch()

    def try_get(self) -> Optional[Any]:
        """Non-blocking dequeue: the oldest item, or None when empty (or
        when waiting getters would race us for it)."""
        if self._getters or not self._items:
            return None
        item = self._items.popleft()
        while self._putters and (
            self.capacity is None or len(self._items) < self.capacity
        ):
            pev, pitem = self._putters.popleft()
            self._items.append(pitem)
            pev.succeed()
        return item

    def _dispatch(self) -> None:
        while self._getters and self._items:
            getter = self._getters.popleft()
            item = self._items.popleft()
            if isinstance(getter, Event):
                getter.succeed(item)
                if self._putters:
                    self._admit_putters()
            else:
                # the callback may put or get again: settle the store first
                if self._putters:
                    self._admit_putters()
                getter(item)

    def _admit_putters(self) -> None:
        while self._putters and (
            self.capacity is None or len(self._items) < self.capacity
        ):
            pev, pitem = self._putters.popleft()
            self._items.append(pitem)
            pev.succeed()


class Channel:
    """A message channel with filtered receive.

    Unlike :class:`Store`, receivers may pass a predicate; a message is
    delivered to the oldest receiver whose predicate accepts it.  This is
    the substrate for MPI-style ``(source, tag)`` matching: unmatched
    messages queue, unmatched receivers queue, and matching is performed
    whenever either side posts (posted-receive semantics).
    """

    __slots__ = ("kernel", "_messages", "_receivers")

    def __init__(self, kernel: SimKernel):
        self.kernel = kernel
        self._messages: Deque[Any] = deque()
        self._receivers: Deque[tuple] = deque()

    @property
    def pending_messages(self) -> int:
        """Messages waiting for a matching receiver (the unexpected queue)."""
        return len(self._messages)

    @property
    def pending_receivers(self) -> int:
        """Receivers waiting for a matching message (posted receives)."""
        return len(self._receivers)

    def send(self, message: Any) -> None:
        """Deliver *message* immediately to a matching waiting receiver,
        or queue it (the "unexpected message queue")."""
        for idx, (receiver, predicate) in enumerate(self._receivers):
            if predicate is None or predicate(message):
                del self._receivers[idx]
                if isinstance(receiver, Event):
                    receiver.succeed(message)
                else:
                    receiver(message)
                return
        self._messages.append(message)

    def receive(self, predicate: Optional[Callable[[Any], bool]] = None) -> Event:
        """Return an event firing with the oldest message matching
        *predicate* (or any message when *predicate* is None)."""
        ev = self.kernel.event()
        for idx, message in enumerate(self._messages):
            if predicate is None or predicate(message):
                del self._messages[idx]
                ev.succeed(message)
                return ev
        self._receivers.append((ev, predicate))
        return ev

    def receive_then(self, callback: Callable[[Any], None],
                     predicate: Optional[Callable[[Any], bool]] = None) -> None:
        """Callback form of :meth:`receive`: *callback(message)* runs with
        the oldest matching message — at once when one is queued, else
        inside the :meth:`send` that delivers it."""
        for idx, message in enumerate(self._messages):
            if predicate is None or predicate(message):
                del self._messages[idx]
                callback(message)
                return
        self._receivers.append((callback, predicate))
