"""Versioned snapshot files, the run ledger and the hang watchdog.

Three cooperating pieces:

**Snapshot files** — :func:`write_snapshot` / :func:`read_snapshot` give
every checkpoint the same on-disk shape: a one-line JSON manifest
(schema tag, SHA-256 of the body, free-form metadata) followed by a
pickle body.  Files are written atomically (temp file + ``fsync`` +
``os.replace``), so a crash mid-write never leaves a truncated snapshot
behind, and the checksum catches bit rot or hand-editing on read.

**Post-mortem capture** — :func:`capture_cluster` dumps every layer of a
:class:`~repro.systems.machine.Cluster` — engine clock and pending
events, physical frames / page tables / VMAs / the HugeTLB pool, TLB /
data cache / ATT LRU order, both allocator heaps, MR/QP/CQ bookkeeping,
counters and the fault injector's RNG stream — into one picklable
payload for the hang watchdog.  It is forensic only: pending events are
summarised rather than pickled (generators cannot be), and nothing
reads a capture back into a live cluster.  Every resume replays
hermetic units from the run ledger instead.

**Run harnessing** — :class:`RunCheckpointer` is the driver-facing unit
ledger: a CLI run decomposes into named units (one benchmark curve, one
NAS kernel, ...), each unit's picklable result is recorded, and
``repro resume <snapshot>`` replays completed units from the ledger so
the remainder of the run produces byte-identical output without
re-simulating.  :class:`HangWatchdog` watches the active kernel's
``(seq, now)`` progress from a daemon thread; a stall (e.g. a livelocked
retry storm wedging the event loop) dumps a post-mortem report plus a
best-effort snapshot of every live cluster and exits non-zero.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import sys
import threading
import time
import weakref
from dataclasses import asdict
from typing import Any, Callable, Dict, List, Optional

from repro.engine import core as engine_core
from repro.util import atomic_write

#: snapshot schema tag; bump on any incompatible payload change
SCHEMA = "repro-checkpoint/1"


class CheckpointError(Exception):
    """Raised for unreadable or corrupt snapshots."""


# ---------------------------------------------------------------------------
# live-cluster registry (for the watchdog's post-mortem)
# ---------------------------------------------------------------------------

_live_clusters: "weakref.WeakSet" = weakref.WeakSet()


def note_cluster(cluster) -> None:
    """Weakly register *cluster* (called by ``Cluster.__init__``)."""
    _live_clusters.add(cluster)


def live_clusters() -> List[Any]:
    """All clusters still alive in this process (unordered)."""
    return list(_live_clusters)


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
# post-mortem capture
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


def _capture_libc(libc) -> dict:
    blocks = sorted(libc._blocks.values(), key=lambda b: b.addr)
    return {
        "blocks": [(b.addr, b.size, b.free, b.in_fastbin, b.prev, b.next)
                   for b in blocks],
        "fastbins": {size: list(addrs) for size, addrs in libc._fastbins.items()},
        "sorted_bin": [tuple(t) for t in libc._sorted_bin],
        "mmapped": dict(libc._mmapped),
        "heap_end": libc._heap_end,
        "sizes": dict(libc._sizes),
        "stats": asdict(libc.stats),
    }


def _capture_process(proc) -> dict:
    aspace = proc.aspace
    leaves = aspace.page_table.dump_state()
    state = {
        "name": proc.name,
        "counters": proc.counters.snapshot(),
        "aspace": {
            "vmas": [(v.start, v.length, v.page_size, v.kind, v.name)
                     for v in aspace.vmas],
            "brk": aspace._brk,
            "mmap_cursor": aspace._mmap_cursor,
            "huge_cursor": aspace._huge_cursor,
            "pt_small": leaves["small"],
            "pt_huge": leaves["huge"],
        },
        "tlb": proc.engine.tlb.dump_state(),
        "cache": proc.engine.cache.dump_state(),
        "libc": _capture_libc(proc.libc),
        "hugepage_lib": None,
    }
    alloc = proc.allocator
    if alloc is not proc.libc:  # the preloaded hugepage-library facade
        state["hugepage_lib"] = {
            "config": alloc.config,
            "pages_mapped": alloc.mapping.pages_mapped,
            "freelist": alloc.management.freelist.dump_state(),
            "live": dict(alloc.management._live),
            "sizes": dict(alloc._sizes),
            "stats": asdict(alloc.stats),
        }
    return state


def _capture_machine(cluster, index: int) -> dict:
    node = cluster.nodes[index]
    hca = node.hca
    cqs: Dict[int, dict] = {}
    qps = []
    for qp in hca._qps.values():
        for cq in (qp.send_cq, qp.recv_cq):
            if cq is not None and cq.cq_id not in cqs:
                cqs[cq.cq_id] = {
                    "cq_id": cq.cq_id,
                    "completions": list(cq.store.items),
                }
        peer_node = None
        if qp.peer_hca is not None:
            for j, other in enumerate(cluster.nodes):
                if other.hca is qp.peer_hca:
                    peer_node = j
                    break
        qps.append({
            "qp_num": qp.qp_num,
            "state": qp.state,
            "pd": qp.pd,
            "send_cq_id": qp.send_cq.cq_id if qp.send_cq is not None else None,
            "recv_cq_id": qp.recv_cq.cq_id if qp.recv_cq is not None else None,
            "peer_node": peer_node,
            "peer_qp_num": qp.peer_qp_num,
            "retry_cnt": qp.retry_cnt,
            "rnr_retry": qp.rnr_retry,
            "ack_timeout_ns": qp.ack_timeout_ns,
            "max_sge": qp.max_sge,
            "max_send_wr": qp.max_send_wr,
            "wr_in_use": qp.wr_slots.in_use,
            "recv_queue": list(qp.recv_q.items),
            "send_queue_len": len(qp.send_q.items),
        })
    return {
        "name": node.name,
        "counters": node.counters.snapshot(),
        "physical": node.physical.dump_state(),
        "hugetlbfs_acquired": node.hugetlbfs._acquired,
        "att": node.att.dump_state(),
        "hca": {
            "rx_seen": dict(hca._rx_seen),
            "rdma_landed": dict(hca.rdma_landed),
            "rdma_exposed": dict(hca.rdma_exposed),
            "mrs": list(hca._mrs_by_lkey.values()),
            "cqs": sorted(cqs.values(), key=lambda c: c["cq_id"]),
            "qps": sorted(qps, key=lambda q: q["qp_num"]),
        },
        "procs": [_capture_process(p) for p in node.processes],
    }


def capture_cluster(cluster) -> dict:
    """Forensic dump of every layer of *cluster* into one picklable
    payload (the hang watchdog's post-mortem).  Works at any point of a
    run: pending events are summarised, not pickled, and
    ``pending_work`` lists what is still in flight."""
    kernel = cluster.kernel
    faults = None
    if cluster.faults is not None:
        faults = {
            "rng_state": cluster.faults.rng.getstate(),
            "hugepage_acquires": cluster.faults._hugepage_acquires,
            "counters": cluster.faults.counters.snapshot(),
        }
    return {
        "kind": "cluster",
        "pending_work": pending_work(cluster),
        "spec": cluster.spec,
        "n_nodes": len(cluster.nodes),
        "fault_plan": cluster.faults.plan if cluster.faults is not None else None,
        "kernel": {
            "now": kernel._now,
            "seq": kernel._seq,
            "queue_length": len(kernel._queue),
            "pending": [_describe_event(e) for e in sorted(kernel._queue)[:256]],
        },
        "faults": faults,
        "nodes": [_capture_machine(cluster, i) for i in range(len(cluster.nodes))],
    }


# ---------------------------------------------------------------------------
# run-level checkpointing: the unit ledger behind --checkpoint-every
# ---------------------------------------------------------------------------

#: process-wide snapshot observer, or None.  :mod:`repro.batch` workers
#: install one so the supervisor-facing side effects (chaos injection,
#: progress markers) run exactly at snapshot boundaries.
_snapshot_hook: Optional[Callable[[str], None]] = None


def set_snapshot_hook(hook: Optional[Callable[[str], None]]) -> None:
    """Install *hook* to be called with the path of every run-ledger
    snapshot :class:`RunCheckpointer` writes (None disables).  The hook
    runs after the snapshot is durably on disk, so a hook that kills
    the process (the batch runner's chaos mode does exactly that)
    leaves a resumable snapshot behind."""
    global _snapshot_hook
    _snapshot_hook = hook


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
        if _snapshot_hook is not None:
            _snapshot_hook(path)
        return path


# ---------------------------------------------------------------------------
# hang watchdog
# ---------------------------------------------------------------------------

def post_mortem_report(kernel=None, clusters=None) -> str:
    """Render the stalled simulation's state for a post-mortem."""
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
    for cluster in clusters or []:
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
    return "\n".join(lines) + "\n"


def _default_on_hang(report: str) -> None:  # pragma: no cover - exits
    os._exit(2)


class HangWatchdog:
    """Detects a wall-clock-stalled event loop from a daemon thread.

    Progress is the active kernel's ``(id, seq, now)`` tuple; while a
    kernel is inside ``run()`` and that tuple stops changing for
    *timeout_s* wall seconds (a livelocked retry storm, a stuck
    callback), the watchdog dumps a post-mortem report plus a
    best-effort snapshot of every live cluster, then calls *on_hang*
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
        self.snapshot_paths: List[str] = []
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
        for i, cluster in enumerate(clusters):
            path = os.path.join(self.snapshot_dir, f"postmortem-cluster{i}.snap")
            try:
                snap = capture_cluster(cluster)
                write_snapshot(path, snap, meta={"kind": "post-mortem"})
                self.snapshot_paths.append(path)
            except Exception as exc:
                report += f"(snapshot of cluster {i} failed: {exc!r})\n"
        print(report, file=self.stream, end="")
        print(
            f"hang watchdog: no simulator progress for {self.timeout_s:.1f}s; "
            f"post-mortem in {self.snapshot_dir}",
            file=self.stream,
        )
        self.on_hang(report)
