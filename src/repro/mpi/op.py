"""MPI operations: point-to-point messages as callback chains.

An MPI send or receive runs as a chain of callbacks, not as a generator
process, as the adapter's pipeline does (see "Callback chains" in
:mod:`repro.ib.hca`).  Every model delay is one scheduled kernel step;
there are no *relays*, zero-delay events whose only job would be to
wake the next step.  The completion queues, send queues and MPI match
channels hand their item straight to a waiting callback, and each
operation ends in one event that carries its result to the rank program
waiting on it.  The chains run with or without a fault plan, traced or
not.

An :class:`Op` is that operation: the result event, the protocol span
(:func:`repro.trace.begin`/:func:`repro.trace.end`) and what must be
undone if a step fails — a pinned registration and an RDMA-read
exposure.  Steps triggered from outside the chain (a timer, a
completion, a matched message) run through :meth:`Op.call`, which turns
an exception into a failed result event after that clean-up; a
registration that fails for good after its retries reaches
:meth:`Op.fail` the same way (see
:meth:`repro.mpi.regcache.RegistrationCache.acquire_then`).

``tests/test_mpi_fold.py`` pins the chains' results, profiles, ticks,
counters and spans to literals.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, List, Optional

from repro import trace
from repro.engine.core import Event

if TYPE_CHECKING:
    from repro.ib.verbs import MemoryRegion
    from repro.mpi.api import Endpoint


#: how a joined operation reports: ``notify(ok, value_or_exception)``
Notify = Callable[[bool, Any], None]


class Op:
    """One MPI operation (see module docstring)."""

    __slots__ = ("ep", "done", "notify", "span", "mr", "exposed")

    def __init__(self, ep: Endpoint, notify: Optional[Notify] = None):
        self.ep = ep
        #: where the result goes when the operation is part of a
        #: :class:`Join`; otherwise it fires :attr:`done`
        self.notify = notify
        #: the result event; a request handle may read its value after
        #: it fired (the kernel never reissues an event)
        self.done = Event(ep.kernel) if notify is None else None
        #: the open protocol span (:func:`repro.trace.begin`), closed
        #: when the operation ends
        self.span: Optional[dict] = None
        #: a registration the operation holds pinned
        self.mr: Optional[MemoryRegion] = None
        #: the ``rdma_exposed`` key of a buffer exposed for RDMA reads
        self.exposed: Optional[tuple] = None

    def call(self, fn: Callable[..., None], *args: Any) -> None:
        """Run one step; an exception fails the operation."""
        try:
            fn(*args)
        except Exception as exc:
            self.fail(exc)

    def after(self, ticks: int, fn: Callable[..., None], *args: Any) -> None:
        """Run one step *ticks* from now (one kernel event)."""
        self.ep.kernel.call_after(ticks, self.call, fn, *args)

    def finish(self, value: Any = None) -> None:
        """Complete the operation with *value*."""
        trace.end(self.span)
        self.span = None
        if self.notify is None:
            self.done.succeed(value)
        else:
            self.notify(True, value)

    def fail(self, exc: Exception) -> None:
        """Fail the operation with *exc* once its exposure is withdrawn
        and its pinned registration released (a timed deregistration
        when lazy deregistration is off)."""
        ep = self.ep
        if self.exposed is not None:
            ep.hca.rdma_exposed.pop(self.exposed, None)
            self.exposed = None
        mr, self.mr = self.mr, None
        if mr is not None:
            ep.regcache.release_then(mr, lambda: self.fail(exc))
            return
        trace.end(self.span)
        self.span = None
        if self.notify is not None:
            self.notify(False, exc)
        elif not self.done.triggered:
            self.done.fail(exc)


class Join:
    """One result event for several operations started together.

    It fires with their values, in start order, once all have finished,
    and fails with the first failure — what an ``AllOf`` over their
    result events does, without those events.
    """

    __slots__ = ("done", "values", "pending")

    def __init__(self, ep: Endpoint, n: int):
        self.done = Event(ep.kernel)
        self.values: List[Any] = [None] * n
        self.pending = n

    def notifier(self, index: int) -> Notify:
        """The ``notify`` of the operation at position *index*."""
        return lambda ok, value: self._settle(index, ok, value)

    def _settle(self, index: int, ok: bool, value: Any) -> None:
        done = self.done
        if done.triggered:
            return
        if not ok:
            done.fail(value)
            return
        self.values[index] = value
        self.pending -= 1
        if self.pending == 0:
            done.succeed(self.values)
