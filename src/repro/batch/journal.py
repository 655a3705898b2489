"""The append-only batch job journal (``jobs.jsonl``).

Every job state transition is one JSON line, appended and fsynced
before the transition's side effects happen — a write-ahead log.  The
journal is the batch's single source of truth for recovery:

* A crash of the *supervisor* can tear at most the final line (the
  append is a single small write, but the fsync may not have landed);
  :func:`read_journal` tolerates exactly that — a truncated last line
  is dropped — while corruption anywhere else raises
  :class:`JournalError`.
* ``repro batch --resume`` folds the journal (:func:`fold_jobs`):
  jobs recorded ``done`` whose result files still exist are served
  from the memo cache without re-running; jobs caught ``running`` by
  the crash and jobs that had ``failed`` are re-queued with a fresh
  retry budget.
* On resume the journal is *compacted*: the surviving ``done`` records
  are rewritten through :func:`repro.util.atomic_write` and the file
  then continues to append — so journals stay O(jobs), not O(crashes).

Records carry no wall-clock timestamps: attempt ordinals order a job's
own history, and keeping host time out of the journal keeps
``repro.batch`` clean under the determinism lint's ``wallclock`` rule.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional, Tuple

from repro.util import atomic_write

#: journal schema tag, recorded in the batch-start line
SCHEMA = "repro-batch-journal/1"


class JournalError(Exception):
    """Raised for a corrupt (non-tail) journal record."""


class Journal:
    """Append-side handle: one fsynced JSON line per event."""

    def __init__(self, path: str):
        self.path = path
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        self._fh = open(path, "a", encoding="utf-8")

    def append(self, record: Dict[str, Any]) -> None:
        """Durably append *record* (flush + fsync before returning)."""
        self._fh.write(json.dumps(record, sort_keys=True,
                                  separators=(",", ":")) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self._fh.close()

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def read_journal(path: str) -> Tuple[List[Dict[str, Any]], bool]:
    """Replay *path*; returns ``(records, torn_tail)``.

    A final line without a newline or that fails to parse is treated as
    a torn append (crash mid-write) and dropped — ``torn_tail`` is True
    then.  A malformed line anywhere *else* means real corruption and
    raises :class:`JournalError`.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise JournalError(f"cannot read journal {path!r}: {exc}")
    records: List[Dict[str, Any]] = []
    lines = raw.split("\n")
    # a complete journal ends with "\n", so the final split element is
    # ""; anything else there is a torn tail
    torn = lines[-1] != ""
    body, tail = lines[:-1], lines[-1]
    for i, line in enumerate(body):
        try:
            rec = json.loads(line)
            if not isinstance(rec, dict):
                raise ValueError("record is not an object")
        except ValueError as exc:
            raise JournalError(
                f"journal {path!r} line {i + 1} is corrupt "
                f"(not a torn tail): {exc}")
        records.append(rec)
    if torn and tail:
        try:
            rec = json.loads(tail)
            if isinstance(rec, dict):
                # fully parseable: the write completed, only the
                # trailing newline is missing
                records.append(rec)
                torn = False
        except ValueError:
            pass
    return records, torn


def fold_jobs(records: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Fold journal *records* into per-job end states.

    Returns ``{job_id: {"key", "command", "status", "attempts",
    "result", "cached"}}`` where ``status`` is one of ``queued``,
    ``running`` (caught mid-flight by a crash), ``done`` or ``failed``.
    """
    jobs: Dict[str, Dict[str, Any]] = {}

    def slot(job_id: str) -> Dict[str, Any]:
        return jobs.setdefault(job_id, {
            "key": None, "command": None, "status": "queued",
            "attempts": 0, "result": None, "cached": False,
        })

    for rec in records:
        ev = rec.get("ev")
        job_id = rec.get("job")
        if not isinstance(job_id, str):
            continue
        state = slot(job_id)
        if ev == "queued":
            state["key"] = rec.get("key")
            state["command"] = rec.get("command")
        elif ev == "running":
            state["status"] = "running"
            state["attempts"] = max(state["attempts"],
                                    int(rec.get("attempt", 0)) + 1)
        elif ev in ("failed", "killed"):
            state["status"] = "failed"
        elif ev == "done":
            state["status"] = "done"
            state["result"] = rec.get("result")
            state["cached"] = bool(rec.get("cached", False))
            if rec.get("key"):
                state["key"] = rec["key"]
    return jobs


def recover(path: str) -> Tuple[Dict[str, Dict[str, Any]], bool]:
    """Convenience: replay + fold *path* for ``--resume``.

    Returns ``(job_states, torn_tail)``; a missing journal returns an
    empty fold.
    """
    if not os.path.exists(path):
        return {}, False
    records, torn = read_journal(path)
    return fold_jobs(records), torn


def compact(path: str, keep: List[Dict[str, Any]],
            header: Optional[Dict[str, Any]] = None) -> None:
    """Atomically rewrite *path* to *header* + *keep* records.

    Used by ``--resume``: completed jobs' ``done`` records survive,
    everything else is re-derived by the new run's appends.
    """
    lines = []
    if header is not None:
        lines.append(json.dumps(header, sort_keys=True, separators=(",", ":")))
    for rec in keep:
        lines.append(json.dumps(rec, sort_keys=True, separators=(",", ":")))
    atomic_write(path, "".join(line + "\n" for line in lines),
                 prefix=".journal-")

