"""Versioned snapshot files, the run ledger and the hang watchdog.

Three cooperating pieces:

**Snapshot files** — :func:`write_snapshot` / :func:`read_snapshot` give
every checkpoint the same on-disk shape: a one-line JSON manifest
(schema tag, SHA-256 of the body, free-form metadata) followed by a
pickle body.  Files are written atomically (temp file + ``fsync`` +
``os.replace``), so a crash mid-write never leaves a truncated snapshot
behind, and the checksum catches bit rot or hand-editing on read.

**Run harnessing** — :class:`RunCheckpointer` is the driver-facing unit
ledger: a CLI run decomposes into named units (one benchmark curve, one
NAS kernel, ...), each unit's picklable result is recorded, and
``repro resume <snapshot>`` replays completed units from the ledger so
the remainder of the run produces byte-identical output without
re-simulating.  :class:`HangWatchdog` watches the active kernel's
``(seq, now)`` progress from a daemon thread; a stall (e.g. a livelocked
retry storm wedging the event loop) writes a post-mortem report — the
pending events, each live cluster's QPs, pending work and sanitizer
findings — and exits non-zero.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import sys
import threading
import time
from typing import Any, Dict, List, Optional

from repro.engine import core as engine_core
from repro.util import atomic_write

#: snapshot schema tag; bump on any incompatible payload change
SCHEMA = "repro-checkpoint/1"


class CheckpointError(Exception):
    """Raised for unreadable or corrupt snapshots."""


# ---------------------------------------------------------------------------
# live clusters (read by the watchdog's post-mortem)
# ---------------------------------------------------------------------------

def live_clusters() -> List[Any]:
    """All clusters still alive in this process (unordered)."""
    from repro.systems.machine import LIVE_CLUSTERS

    return list(LIVE_CLUSTERS)


# ---------------------------------------------------------------------------
# snapshot files: manifest line + pickle body, atomic replace
# ---------------------------------------------------------------------------

def write_snapshot(path: str, payload: Any, meta: Optional[dict] = None) -> dict:
    """Atomically write *payload* to *path*; returns the manifest.

    Layout: one JSON line ``{"schema", "sha256", "payload_bytes",
    "meta"}`` followed by the raw pickle of *payload*.  The write goes
    through a temp file in the same directory, is fsynced, then renamed
    over *path* — readers only ever see a complete snapshot.
    """
    body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    manifest = {
        "schema": SCHEMA,
        "sha256": hashlib.sha256(body).hexdigest(),
        "payload_bytes": len(body),
        "meta": meta or {},
    }
    line = json.dumps(manifest, sort_keys=True).encode("utf-8") + b"\n"
    atomic_write(path, line + body, prefix=".snap-")
    return manifest


def read_snapshot(path: str):
    """Read and verify a snapshot; returns ``(manifest, payload)``.

    Raises :class:`CheckpointError` on a missing/garbled manifest, a
    schema mismatch or a checksum failure.
    """
    try:
        with open(path, "rb") as fh:
            line = fh.readline()
            body = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read snapshot {path!r}: {exc}")
    try:
        manifest = json.loads(line)
    except ValueError:
        raise CheckpointError(f"{path!r} has no snapshot manifest (not a repro snapshot?)")
    if not isinstance(manifest, dict) or manifest.get("schema") != SCHEMA:
        raise CheckpointError(
            f"{path!r}: unsupported snapshot schema "
            f"{manifest.get('schema') if isinstance(manifest, dict) else manifest!r} "
            f"(this build reads {SCHEMA})"
        )
    digest = hashlib.sha256(body).hexdigest()
    if digest != manifest.get("sha256"):
        raise CheckpointError(
            f"{path!r}: integrity check failed — truncated or corrupt "
            f"snapshot (manifest {manifest.get('sha256')}, body {digest})"
        )
    try:
        payload = pickle.loads(body)
    except Exception as exc:
        # a checksum-valid body can still fail to unpickle (e.g. it was
        # written by a build whose classes have since moved); surface it
        # as a snapshot problem, not a traceback
        raise CheckpointError(f"{path!r}: cannot unpickle snapshot body: {exc}")
    return manifest, payload


# ---------------------------------------------------------------------------
# post-mortem forensics
# ---------------------------------------------------------------------------

def pending_work(cluster) -> List[str]:
    """Human-readable list of what *cluster* still has in flight (empty
    at a quiescent boundary)."""
    issues = []
    if cluster.kernel._queue:
        issues.append(
            f"{len(cluster.kernel._queue)} events pending in the event heap"
        )
    for i, node in enumerate(cluster.nodes):
        if node.hca._rx_inflight:
            issues.append(f"node {i}: {len(node.hca._rx_inflight)} inbound messages in flight")
        if node.hca._outstanding:
            issues.append(f"node {i}: {len(node.hca._outstanding)} un-acked sends outstanding")
        for qp in node.hca._qps.values():
            if qp.send_q.items:
                issues.append(
                    f"node {i}: QP {qp.qp_num} has {len(qp.send_q.items)} queued WRs"
                )
    return issues


def _describe_event(entry) -> dict:
    """Forensic summary of one heap entry (never pickles the event)."""
    when, priority, seq, ev = entry
    wakes = []
    # a step is a bare (fn, args) call: its function is what it wakes
    calls = (ev[0],) if ev.__class__ is tuple else ev.callbacks or ()
    for cb in calls:
        owner = getattr(cb, "__self__", None)
        name = getattr(owner, "name", None)
        if name:
            wakes.append(str(name))
    return {
        "when": when,
        "priority": priority,
        "seq": seq,
        "type": engine_core.item_name(ev),
        "wakes": wakes,
    }


# ---------------------------------------------------------------------------
# run-level checkpointing: the unit ledger behind --checkpoint-every
# ---------------------------------------------------------------------------

class RunCheckpointer:
    """Unit ledger for resumable CLI runs.

    A driver decomposes into named, hermetic units (each builds its own
    cluster); :meth:`run_unit` executes a unit, records its picklable
    result and, once enough simulated ticks have accumulated, writes a
    snapshot.  A resumed run is seeded with the snapshot's unit ledger
    and replays completed units from it — skipping the simulation but
    reproducing byte-identical driver output.
    """

    def __init__(
        self,
        command: str,
        argv: List[str],
        directory: Optional[str] = None,
        every_ticks: Optional[int] = None,
        audit: bool = False,
        preloaded_units: Optional[Dict[str, dict]] = None,
        stream=None,
    ):
        self.command = command
        self.argv = list(argv)
        self.directory = directory
        self.every_ticks = every_ticks
        self.audit = audit
        self.enabled = every_ticks is not None or directory is not None
        self.units: Dict[str, dict] = dict(preloaded_units or {})
        self.resumed_units = sorted(self.units)
        self.stream = stream if stream is not None else sys.stderr
        self.last_snapshot_path: Optional[str] = None
        self._since_snapshot = 0
        self._n_snapshots = 0

    def _log(self, message: str) -> None:
        print(message, file=self.stream)

    def run_unit(self, name: str, fn):
        """Run unit *name* via *fn* (or replay it from the ledger).

        *fn* returns ``(result, ticks, cluster)``: the unit's picklable
        result, how many simulated ticks it consumed, and its finished
        cluster (a single cluster, a list of them, or None) for the
        snapshot sweep — clusters never enter the ledger.
        """
        from repro import trace

        tracer = trace.active()
        if name in self.units:
            self._log(f"checkpoint: unit {name!r} restored from snapshot, skipping")
            if tracer is not None:
                # replay the unit's trace slice from the ledger so a
                # resumed run's trace is byte-identical to an
                # uninterrupted one
                tracer.replay_unit(self.units[name].get("trace"))
            return self.units[name]["result"]
        marker = tracer.begin_unit(name) if tracer is not None else None
        result, ticks, cluster = fn()
        clusters = list(cluster) if isinstance(cluster, (list, tuple)) else (
            [cluster] if cluster is not None else [])
        if (self.audit or self.enabled) and clusters:
            from repro.sanitize import check_snapshot

            for i, c in enumerate(clusters):
                check_snapshot(c, label=name if len(clusters) == 1 else f"{name}[{i}]")
            if self.audit:
                self._log(f"audit: {name}: clean")
        self.units[name] = {"result": result, "ticks": int(ticks)}
        if tracer is not None:
            self.units[name]["trace"] = tracer.end_unit(marker)
        if self.enabled:
            self._since_snapshot += int(ticks)
            if self._since_snapshot >= (self.every_ticks or 0):
                self.save()
                self._since_snapshot = 0
        return result

    def save(self) -> str:
        """Write the ledger snapshot (numbered file + ``latest.snap``)."""
        directory = self.directory or "checkpoints"
        self._n_snapshots += 1
        payload = {
            "kind": "run-ledger",
            "command": self.command,
            "argv": self.argv,
            "units": self.units,
        }
        meta = {
            "kind": "run-ledger",
            "command": self.command,
            "argv": self.argv,
            "units": sorted(self.units),
        }
        path = os.path.join(directory, f"ckpt-{self._n_snapshots:04d}.snap")
        write_snapshot(path, payload, meta=meta)
        write_snapshot(os.path.join(directory, "latest.snap"), payload, meta=meta)
        self.last_snapshot_path = path
        self._log(f"checkpoint: wrote {path} ({len(self.units)} units)")
        return path


# ---------------------------------------------------------------------------
# hang watchdog
# ---------------------------------------------------------------------------

def post_mortem_report(kernel=None, clusters=None) -> str:
    """Render the stalled simulation's state for a post-mortem: the
    kernel's pending events, then per cluster its QPs, ``faults.*``
    counters, :func:`pending_work` and the findings of
    :func:`repro.sanitize.sweep_cluster`."""
    lines = ["=== repro hang post-mortem ==="]
    if kernel is not None:
        lines.append(
            f"kernel: now={kernel._now} seq={kernel._seq} "
            f"pending_events={len(kernel._queue)}"
        )
        for summary in [_describe_event(e) for e in sorted(kernel._queue)[:32]]:
            wakes = ",".join(summary["wakes"]) or "-"
            lines.append(
                f"  event t={summary['when']} prio={summary['priority']} "
                f"seq={summary['seq']} {summary['type']} wakes={wakes}"
            )
    else:
        lines.append("kernel: none active (stall outside the event loop)")
    from repro.sanitize import sweep_cluster

    for index, cluster in enumerate(clusters or []):
        lines.append(f"cluster: {cluster.spec.name} x{len(cluster.nodes)}")
        for i, node in enumerate(cluster.nodes):
            hca = node.hca
            lines.append(
                f"  node {i} ({node.name}): rx_inflight={len(hca._rx_inflight)} "
                f"outstanding={len(hca._outstanding)}"
            )
            for qp in sorted(hca._qps.values(), key=lambda q: q.qp_num):
                lines.append(
                    f"    QP {qp.qp_num}: state={qp.state} "
                    f"wr_in_use={qp.wr_slots.in_use} "
                    f"queued={len(qp.send_q.items)} "
                    f"retry_cnt={qp.retry_cnt} rnr_retry={qp.rnr_retry}"
                )
        counters = cluster.aggregate_counters()
        faulty = {k: v for k, v in counters.items() if k.startswith("faults.")}
        lines.append(f"  counters: {len(counters)} keys")
        for key, value in faulty.items():
            lines.append(f"    {key} = {value}")
        try:
            work = pending_work(cluster)
            findings = sweep_cluster(cluster, label=f"cluster{index}")
        except Exception as exc:  # racing the wedged loop: degrade, never die
            lines.append(f"  (forensics of cluster {index} failed: {exc!r})")
            continue
        lines.append(f"  pending work: {len(work)}")
        lines += [f"    {item}" for item in work]
        lines.append(f"  sanitizer findings: {len(findings)}")
        lines += [f"    {err.rule}: {err.args[0]}" for err in findings]
    return "\n".join(lines) + "\n"


def _default_on_hang(report: str) -> None:  # pragma: no cover - exits
    os._exit(2)


class HangWatchdog:
    """Detects a wall-clock-stalled event loop from a daemon thread.

    Progress is the active kernel's ``(id, seq, now)`` tuple; while a
    kernel is inside ``run()`` and that tuple stops changing for
    *timeout_s* wall seconds (a livelocked retry storm, a stuck
    callback), the watchdog writes a post-mortem report (see
    :func:`post_mortem_report`) to *snapshot_dir*, then calls *on_hang*
    (default: exit status 2).  Host-side work between ``run()`` calls
    never counts as a hang — there is no active kernel then.
    """

    def __init__(
        self,
        timeout_s: float,
        snapshot_dir: str = ".",
        on_hang=None,
        poll_s: Optional[float] = None,
        stream=None,
    ):
        if timeout_s <= 0:
            raise ValueError("watchdog timeout must be positive")
        self.timeout_s = float(timeout_s)
        self.poll_s = poll_s if poll_s is not None else min(1.0, self.timeout_s / 4.0)
        self.snapshot_dir = snapshot_dir
        self.on_hang = on_hang if on_hang is not None else _default_on_hang
        self.stream = stream if stream is not None else sys.stderr
        self.fired = False
        self.report_path: Optional[str] = None
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "HangWatchdog":
        self._thread = threading.Thread(
            target=self._watch, daemon=True, name="repro-hang-watchdog"
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=self.poll_s * 4 + 1.0)

    def __enter__(self) -> "HangWatchdog":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def _watch(self) -> None:
        last_progress = None
        last_change = time.monotonic()
        while not self._stop.wait(self.poll_s):
            kernel = engine_core.active_kernel()
            if kernel is None:
                last_progress = None
                last_change = time.monotonic()
                continue
            progress = (id(kernel), kernel._seq, kernel._now)
            if progress != last_progress:
                last_progress = progress
                last_change = time.monotonic()
                continue
            if time.monotonic() - last_change >= self.timeout_s:
                self._fire(kernel)
                return

    def _fire(self, kernel) -> None:
        self.fired = True
        clusters = [c for c in live_clusters() if c.kernel is kernel] or live_clusters()
        try:
            report = post_mortem_report(kernel, clusters)
        except Exception as exc:  # racing the wedged loop: degrade, never die
            report = f"=== repro hang post-mortem ===\n(report failed: {exc!r})\n"
        os.makedirs(self.snapshot_dir, exist_ok=True)
        self.report_path = os.path.join(self.snapshot_dir, "postmortem-report.txt")
        try:
            with open(self.report_path, "w") as fh:
                fh.write(report)
        except OSError:
            self.report_path = None
        print(report, file=self.stream, end="")
        print(
            f"hang watchdog: no simulator progress for {self.timeout_s:.1f}s; "
            f"post-mortem in {self.snapshot_dir}",
            file=self.stream,
        )
        self.on_hang(report)
