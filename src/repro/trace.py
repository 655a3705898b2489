"""Cross-layer structured tracing and metrics timeline.

The paper's whole argument is an *attribution* argument — time belongs
to registration, to ATT misses, to TLB misses, or to the wire — so the
simulator needs more than end-of-run counter totals: it needs to say
*when* and *where* inside a run each cost landed.  This module is that
tool: a :class:`Tracer` with a span API (``with tracer.span("ib.tx",
bytes=n):``, or :meth:`Tracer.begin`/:meth:`Tracer.end` for callback
chains, whose steps share no ``with`` block), instant events, and
counter-delta sampling at span boundaries, threaded through the engine
run loop, the memory system, the IB stack and the MPI layer (see
``docs/observability.md`` for the span taxonomy).

Three properties drive the design:

**Zero cost when disabled.**  Instrumentation sites call
:func:`active` (or :func:`span`) and do nothing beyond a ``None`` check
when no tracer is installed — the pattern :mod:`repro.fastpath` set.
The engine's inner event loop is never instrumented; spans live at
phase-level call sites only.

**Simulated time, deterministic bytes.**  Timestamps are the attached
cluster kernel's integer tick counter (``kernel.now``), never wall
time, and span attributes are restricted to values that are identical
on the fast and slow costing paths (sizes, opcodes, ranks, tick
counts — never floats from path-specific arithmetic).  Because the
fast paths are bit-identical to the reference loops and span sites sit
above both, a trace is **byte-identical** with and without
``--no-fastpath`` and across checkpoint→resume (the run ledger stores
each unit's events and replays them verbatim — see
:meth:`Tracer.begin_unit` / :meth:`Tracer.replay_unit` and
:class:`repro.checkpoint.RunCheckpointer`).

**Exact counter attribution.**  At every span boundary the tracer
samples the attached cluster's ``aggregate_counters()`` and attributes
the delta since the previous boundary to the most-recently-opened
still-open span (or to a standalone ``trace.counters`` event when no
span is open).  Every increment is attributed exactly once, so the
per-span deltas — plus the unattributed bucket — sum **exactly** to
the run's final :class:`~repro.analysis.counters.CounterSet` totals;
:meth:`Tracer.counter_totals` is that sum and
:meth:`Tracer.phase_table` is the per-phase table that
:func:`repro.analysis.breakdown.phase_delta_table` consumes.

Export is Chrome/Perfetto ``trace_event`` JSON
(:meth:`Tracer.to_chrome` / :meth:`Tracer.dumps`): load the file at
https://ui.perfetto.dev or ``chrome://tracing``.  One *process* per
run unit (``pid``), one *thread* per track (``tid`` — a rank, an HCA,
or the kernel), ``ts``/``dur`` in simulated ticks.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from typing import Any, Callable, ContextManager, Dict, Iterator, List, Optional, Tuple

from repro.util import atomic_write

#: the installed tracer, or None (tracing disabled).  Module-level so
#: instrumentation sites pay one attribute read + None check when
#: tracing is off.
_tracer: Optional["Tracer"] = None


def active() -> Optional["Tracer"]:
    """The installed :class:`Tracer`, or None when tracing is disabled."""
    return _tracer


def install(tracer: "Tracer") -> None:
    """Install *tracer* as the process-wide tracer."""
    global _tracer
    _tracer = tracer


def uninstall() -> None:
    """Disable tracing."""
    global _tracer
    _tracer = None


@contextmanager
def capturing(tracer: "Tracer") -> Iterator["Tracer"]:
    """Install *tracer* for the duration of a ``with`` block."""
    global _tracer
    prior = _tracer
    _tracer = tracer
    try:
        yield tracer
    finally:
        _tracer = prior


class _NullSpan:
    """The disabled-tracing span: a no-op context manager singleton."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> bool:
        return False


NULL_SPAN = _NullSpan()


def span(name: str, track: Optional[str] = None, **attrs: Any) -> ContextManager[Any]:
    """A span on the installed tracer, or a no-op when disabled.

    Convenience for sites where the one-call overhead is acceptable;
    the hottest sites check :func:`active` themselves and skip even
    the keyword packing.
    """
    t = _tracer
    if t is None:
        return NULL_SPAN
    return t.span(name, track=track, **attrs)


def begin(name: str, track: Optional[str] = None,
          **attrs: Any) -> Optional[Dict[str, Any]]:
    """Open a span on the installed tracer; returns its record for
    :func:`end`, or None when tracing is disabled."""
    t = _tracer
    if t is None:
        return None
    return t.begin(name, track, **attrs)


def end(rec: Optional[Dict[str, Any]]) -> None:
    """Close a span opened by :func:`begin` (no-op for None)."""
    t = _tracer
    if rec is not None and t is not None:
        t.end(rec)


def instant(name: str, track: Optional[str] = None, **attrs: Any) -> None:
    """An instant event on the installed tracer (no-op when disabled)."""
    t = _tracer
    if t is not None:
        t.instant(name, track=track, **attrs)


def attach_cluster(cluster: Any) -> None:
    """Bind the installed tracer's clock and counter source to
    *cluster* (called by ``Cluster.__init__``; no-op when disabled)."""
    t = _tracer
    if t is not None:
        t.attach_cluster(cluster)


class Tracer:
    """Collects spans, instants and counter deltas on simulated time.

    Events are plain dicts (picklable, JSON-able) in a flat list; a
    span is recorded once, at close, as a Chrome ``"X"`` (complete)
    event.  The tracer is single-run state: install one per traced run
    with :func:`capturing`.
    """

    def __init__(self) -> None:
        #: closed events, in close order (deterministic: simulation
        #: order is deterministic and spans append on exit)
        self.events: List[Dict[str, Any]] = []
        self._kernel: Optional[Any] = None
        self._counter_fn: Optional[Callable[[], Dict[str, int]]] = None
        self._last_sample: Dict[str, int] = {}
        #: open spans, oldest first; counter deltas attribute to the
        #: most recently opened entry
        self._open: List[Dict[str, Any]] = []
        self._unit = "(main)"

    # -- time & counter sources ---------------------------------------------

    def _now(self) -> int:
        kernel = self._kernel
        return kernel.now if kernel is not None else 0

    def attach_cluster(self, cluster: Any) -> None:
        """Re-key the tracer to *cluster*'s kernel and counters.

        Flushes the outgoing source's residual counter delta first, so
        a run that builds several clusters (fig5 builds one per curve)
        still attributes every increment exactly once.  The baseline
        restarts empty so counters bumped during cluster construction
        are captured by the first boundary.
        """
        self._boundary()
        self._kernel = cluster.kernel
        self._counter_fn = cluster.aggregate_counters
        self._last_sample = {}

    def _boundary(self) -> None:
        """Sample the counter source; attribute the delta since the
        previous boundary to the innermost open span (or a standalone
        ``trace.counters`` event when none is open)."""
        fn = self._counter_fn
        if fn is None:
            return
        current = fn()
        last = self._last_sample
        delta: Dict[str, int] = {}
        for key, value in current.items():
            d = value - last.get(key, 0)
            if d:
                delta[key] = d
        if delta:
            if self._open:
                into = self._open[-1].setdefault("deltas", {})
                for key, d in delta.items():
                    into[key] = into.get(key, 0) + d
            else:
                self.events.append({
                    "ph": "i", "name": "trace.counters", "ts": self._now(),
                    "unit": self._unit, "track": "(counters)", "args": {},
                    "deltas": delta,
                })
        self._last_sample = current

    def flush(self) -> None:
        """Force a counter-sampling boundary (e.g. at end of run)."""
        self._boundary()

    # -- recording ----------------------------------------------------------

    def begin(self, name: str, track: Optional[str] = None,
              **attrs: Any) -> Dict[str, Any]:
        """Open a span now; returns its record for :meth:`end` (callers
        may add attributes discovered mid-span, ``rec["args"]["hit"] =
        True``).  Callback chains use the pair directly, since their
        steps are separate calls with no ``with`` block around them.

        Attributes must be deterministic across the fast and slow
        costing paths — sizes, opcodes, names, tick counts; never
        path-derived floats or global id-counter values.
        """
        self._boundary()
        rec = {
            "ph": "X", "name": name, "ts": self._now(),
            "unit": self._unit, "track": track or "main", "args": attrs,
        }
        self._open.append(rec)
        return rec

    def end(self, rec: Dict[str, Any]) -> None:
        """Close a span opened by :meth:`begin` at the current tick."""
        self._boundary()
        try:
            self._open.remove(rec)
        except ValueError:  # pragma: no cover - defensive
            pass
        rec["dur"] = self._now() - rec["ts"]
        self.events.append(rec)

    @contextmanager
    def span(self, name: str, track: Optional[str] = None,
             **attrs: Any) -> Iterator[Dict[str, Any]]:
        """:meth:`begin` and :meth:`end` around a ``with`` block; yields
        the span record."""
        rec = self.begin(name, track, **attrs)
        try:
            yield rec
        finally:
            self.end(rec)

    def instant(self, name: str, track: Optional[str] = None,
                **attrs: Any) -> None:
        """Record a point event at the current simulated tick."""
        self.events.append({
            "ph": "i", "name": name, "ts": self._now(),
            "unit": self._unit, "track": track or "main", "args": attrs,
        })

    # -- run-unit capture (checkpoint integration) --------------------------

    def begin_unit(self, name: str) -> int:
        """Mark the start of a run-ledger unit; returns a marker for
        :meth:`end_unit`.  Events recorded until then carry *name* as
        their ``unit`` (the Chrome export's process)."""
        self._boundary()
        self._unit = name
        return len(self.events)

    def end_unit(self, marker: int) -> Dict[str, Any]:
        """Close the current unit; returns its picklable event blob
        (stored in the run ledger, replayed verbatim on resume)."""
        self._boundary()
        self._unit = "(main)"
        return {"events": self.events[marker:]}

    def replay_unit(self, blob: Optional[Dict[str, Any]]) -> None:
        """Re-emit a ledger unit's events (checkpoint resume path).

        *blob* may be None — a snapshot written by an untraced run has
        no trace slice, and the resumed trace then simply omits the
        restored units.
        """
        if blob is not None:
            self.events.extend(blob["events"])

    # -- analysis & export --------------------------------------------------

    def phase_table(self) -> Dict[str, Dict[str, int]]:
        """Per-span-name counter-delta table (plus ``(unattributed)``).

        The table's row sums equal :meth:`counter_totals` exactly.
        """
        table: Dict[str, Dict[str, int]] = {}
        for ev in self.events:
            deltas = ev.get("deltas")
            if not deltas:
                continue
            key = ev["name"] if ev["ph"] == "X" else "(unattributed)"
            row = table.setdefault(key, {})
            for counter, d in deltas.items():
                row[counter] = row.get(counter, 0) + d
        return {name: dict(sorted(row.items()))
                for name, row in sorted(table.items())}

    def counter_totals(self) -> Dict[str, int]:
        """Sum of every attributed counter delta — exactly the run's
        final aggregate counter totals (after :meth:`flush`)."""
        total: Dict[str, int] = {}
        for ev in self.events:
            for counter, d in (ev.get("deltas") or {}).items():
                total[counter] = total.get(counter, 0) + d
        return dict(sorted(total.items()))

    def to_chrome(self) -> Dict[str, Any]:
        """The trace as a Chrome/Perfetto ``trace_event`` object."""
        out: List[Dict[str, Any]] = []
        pids: Dict[str, int] = {}
        tids: Dict[Tuple[int, str], int] = {}

        def pid_for(unit: str) -> int:
            pid = pids.get(unit)
            if pid is None:
                pid = pids[unit] = len(pids) + 1
                out.append({"ph": "M", "name": "process_name", "pid": pid,
                            "tid": 0, "ts": 0, "args": {"name": unit}})
            return pid

        def tid_for(pid: int, track: str) -> int:
            tid = tids.get((pid, track))
            if tid is None:
                tid = sum(1 for key in tids if key[0] == pid) + 1
                tids[(pid, track)] = tid
                out.append({"ph": "M", "name": "thread_name", "pid": pid,
                            "tid": tid, "ts": 0, "args": {"name": track}})
            return tid

        for ev in self.events:
            pid = pid_for(ev["unit"])
            rec = {
                "ph": ev["ph"], "name": ev["name"],
                "cat": ev["name"].split(".", 1)[0],
                "ts": ev["ts"], "pid": pid,
                "tid": tid_for(pid, ev["track"]),
                "args": dict(ev["args"]),
            }
            if ev["ph"] == "X":
                rec["dur"] = ev["dur"]
            elif ev["ph"] == "i":
                rec["s"] = "t"
            deltas = ev.get("deltas")
            if deltas:
                rec["args"]["counters"] = dict(sorted(deltas.items()))
            out.append(rec)
        return {
            "traceEvents": out,
            "displayTimeUnit": "ns",
            "otherData": {
                "clock": "simulated ticks",
                "phase_table": self.phase_table(),
                "counter_totals": self.counter_totals(),
            },
        }

    def dumps(self) -> str:
        """Deterministic JSON serialization of :meth:`to_chrome` —
        byte-identical for byte-identical runs."""
        return json.dumps(self.to_chrome(), sort_keys=True,
                          separators=(",", ":"))

    def write(self, path: str) -> None:
        """Atomically write the Chrome trace JSON to *path*."""
        atomic_write(path, self.dumps() + "\n", prefix=".trace-")
