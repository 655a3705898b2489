"""Worker supervision: pool, timeouts, retry/backoff, crash recovery.

The supervision model is one process per attempt: every attempt of
every job runs in a freshly spawned worker
(:func:`repro.batch.worker.worker_entry`), so a SIGKILL, a segfault or
an OOM kill takes down exactly one attempt and nothing shared.  The
supervisor's loop is intentionally boring — reap finished workers,
SIGKILL overdue ones, launch eligible jobs, sleep a poll tick — with
all durable state in the write-ahead journal, so the supervisor itself
crashing loses at most one torn journal line (``--resume`` replays the
rest).

Robustness semantics:

* **Timeouts** — a per-job wall-clock budget (``--timeout``, or the
  spec's own ``timeout``).  Checkpointable drivers additionally run
  under the existing :class:`repro.checkpoint.HangWatchdog` with the
  same budget, so a wedged event *loop* self-reports with a forensic
  post-mortem in the job directory; the supervisor's SIGKILL is the
  backstop for stalls outside the loop.
* **Retry with exponential backoff** — a crashed/timed-out/transiently
  failed attempt is re-queued after ``backoff * 2**(attempt-1)``
  seconds, up to ``--retries`` retries; after that the job is failed
  and the batch exits 1 (completed jobs keep their results).  Failures
  are *classified* first (:func:`classify_exit`): a deterministic
  exit 2 — bad spec, failed preflight — can never succeed on a retry,
  so it fails fast after exactly one attempt.
* **Crash recovery** — if a dead worker left a checkpoint snapshot,
  the retry runs ``repro resume <snapshot>`` and finishes from the
  last unit boundary instead of restarting; determinism makes the
  recovered stdout byte-identical to an uninterrupted run.  A *clean*
  failure of a resume attempt (exit > 0: e.g. a corrupt snapshot)
  discards the snapshot and retries from scratch.  A fresh attempt
  first empties the job's checkpoint directory, so the only snapshot a
  retry can resume is one this job's own attempts wrote.
* **Memoization** — before launching, the sha256 result cache is
  consulted; duplicate configs wait for the in-flight twin instead of
  racing it.
* **Graceful SIGINT/SIGTERM** — stop launching, SIGTERM (then SIGKILL)
  the workers, journal the interruption, flush, exit 130 (SIGINT) or
  143 (SIGTERM — what CI and container runtimes send); ``repro batch
  --resume`` continues without re-running completed jobs.

This module is process management, not simulation — its
``wallclock-sleep`` lint suppressions are the documented escape hatch.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import shutil
import signal
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.batch import journal as journal_mod
from repro.batch import worker
from repro.batch.chaos import ChaosPlan
from repro.batch.journal import Journal
from repro.batch.memo import MemoCache
from repro.batch.spec import JobSpec, job_key
from repro.util import atomic_write

#: scheduler poll tick (wall seconds)
POLL_S = 0.02

#: exit codes that classify as *permanent*: retrying cannot change the
#: outcome.  Exit 2 is the repo-wide "bad spec / failed preflight"
#: contract — deterministic by definition.
PERMANENT_EXITS = frozenset({2})


class BatchError(Exception):
    """Raised for batch-level preflight problems (CLI exit 2)."""


def classify_exit(code: Optional[int], timed_out: bool) -> Tuple[str, str]:
    """Classify one finished attempt as ``(kind, reason)``.

    *kind* drives the retry decision:

    ``done``
        Exit 0; publish the result.
    ``timeout``
        Killed by the supervisor's wall-clock budget; retry (from a
        snapshot when one exists).
    ``crash``
        Killed by any other signal (SIGKILL, segfault, OOM); retry
        (from a snapshot when one exists).
    ``permanent``
        A deterministic failure (exit 2: bad spec / failed preflight);
        re-running the identical config must fail identically, so fail
        fast — no retry, the budget is not consumed.
    ``transient``
        Any other nonzero exit; retry from scratch (a clean failure
        while *resuming* additionally discards the suspect snapshot).
    """
    if code == 0:
        return "done", "exit 0"
    if code is not None and code < 0:
        if timed_out:
            return "timeout", "timeout"
        return "crash", f"killed by signal {-code}"
    if code in PERMANENT_EXITS:
        return "permanent", f"exit {code} (permanent)"
    return "transient", f"exit {code}"


@dataclass
class _Job:
    """Supervisor-side state of one job."""

    spec: JobSpec
    key: str
    jobdir: str
    status: str = "queued"  # queued | running | done | failed
    attempts: int = 0
    crashes: int = 0
    timeouts: int = 0
    failures: int = 0
    cached: bool = False
    outcome: str = ""
    eligible_at: float = 0.0
    resume_next: bool = False
    used_resume: bool = False
    timed_out: bool = False
    chaos_action: Optional[str] = None
    started_at: float = 0.0
    deadline: Optional[float] = None
    proc: Optional[Any] = field(default=None, repr=False)

    @property
    def terminal(self) -> bool:
        return self.status in ("done", "failed")


class BatchSupervisor:
    """Runs a batch of :class:`JobSpec` jobs to completion."""

    def __init__(
        self,
        specs: List[JobSpec],
        out_dir: str,
        workers: int = 2,
        timeout: Optional[float] = None,
        retries: int = 2,
        backoff: float = 0.25,
        chaos: Optional[ChaosPlan] = None,
        resume: bool = False,
        trace_out: Optional[str] = None,
        stream=None,
    ):
        if workers < 1:
            raise BatchError("worker pool size must be >= 1")
        if retries < 0:
            raise BatchError("retry budget must be >= 0")
        # NaN fails every comparison, so it would set a deadline that
        # never expires; 0 would set none at all
        if timeout is not None and not 0 < timeout < math.inf:
            raise BatchError("--timeout must be a finite number of "
                             "seconds > 0")
        if not 0 <= backoff < math.inf:
            raise BatchError("--backoff must be a finite number of "
                             "seconds >= 0")
        if chaos is not None and chaos.stall_p > 0 and timeout is None \
                and not all(s.timeout for s in specs):
            raise BatchError("--chaos stall needs a per-job --timeout "
                             "(a stalled worker is only recovered by the "
                             "timeout kill)")
        # absolute: workers chdir into their job directories, so every
        # injected path must survive a cwd change
        self.out_dir = os.path.abspath(out_dir)
        self.workers = workers
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.chaos = chaos
        self.resume = resume
        self.trace_out = trace_out
        self.stream = stream if stream is not None else sys.stderr
        self.journal_path = os.path.join(self.out_dir, "jobs.jsonl")
        from repro.analysis.counters import CounterSet

        self.counters = CounterSet()
        self.memo = MemoCache(self.out_dir, counters=self.counters)
        self.jobs: List[_Job] = [
            _Job(spec=spec, key=job_key(spec),
                 jobdir=os.path.join(self.out_dir, "jobs", spec.id))
            for spec in specs
        ]
        self.interrupted = False
        self._signal = signal.SIGINT
        self._journal: Optional[Journal] = None

    # -- logging ------------------------------------------------------------

    def _log(self, message: str) -> None:
        print(f"batch: {message}", file=self.stream)

    # -- resume -------------------------------------------------------------

    def _recover_journal(self) -> None:
        """Fold the existing journal, pre-complete still-valid done
        jobs, and compact the journal before the new run appends."""
        try:
            states, torn = journal_mod.recover(self.journal_path)
        except journal_mod.JournalError as exc:
            raise BatchError(f"--resume: {exc}")
        if torn:
            self._log("journal had a torn final record (crash mid-append); "
                      "dropped it")
        keep: List[Dict[str, Any]] = []
        for job in self.jobs:
            state = states.get(job.spec.id)
            if state is None:
                continue
            if state["key"] is not None and state["key"] != job.key:
                self._log(f"job {job.spec.id!r}: spec changed since the "
                          "journal was written; re-running")
                continue
            if state["status"] == "done" and state["result"] \
                    and self.memo.lookup(job.key) is not None:
                job.status = "done"
                job.cached = True
                job.outcome = "done (cached)"
                keep.append({"ev": "done", "job": job.spec.id,
                             "key": job.key, "attempt": 0, "cached": True,
                             "result": state["result"]})
            elif state["status"] == "running":
                self._log(f"job {job.spec.id!r} was running at the crash; "
                          "re-queued")
        journal_mod.compact(
            self.journal_path, keep,
            header={"ev": "batch-start", "schema": journal_mod.SCHEMA,
                    "resumed": True, "n_jobs": len(self.jobs)})

    # -- worker lifecycle ---------------------------------------------------

    def _spawn(self, job: _Job) -> None:
        os.makedirs(job.jobdir, exist_ok=True)
        use_resume = job.resume_next and os.path.exists(
            worker.snapshot_path(job.jobdir))
        if not use_resume:
            # a snapshot left by an earlier run (maybe of another config
            # under the same id) must never be resumed as this job's
            shutil.rmtree(os.path.join(job.jobdir, worker.CKPT_DIRNAME),
                          ignore_errors=True)
        spec = job.spec
        args = list(spec.args)
        timeout = spec.timeout if spec.timeout is not None else self.timeout
        if timeout is not None and spec.command in worker.CHECKPOINTABLE \
                and "--hang-timeout" not in args:
            # the existing watchdog backs the supervisor's kill: a
            # wedged event loop self-reports with a post-mortem first
            args += ["--hang-timeout", str(timeout)]
        argv = worker.build_attempt_argv(
            spec.command, args, job.jobdir, use_resume,
            trace=self.trace_out is not None)
        job.chaos_action = (self.chaos.decide(job.key, job.attempts)
                           if self.chaos is not None else None)
        assert self._journal is not None
        self._journal.append({"ev": "running", "job": spec.id,
                              "attempt": job.attempts,
                              "resume": use_resume,
                              "chaos": job.chaos_action})
        proc = multiprocessing.Process(
            target=worker.worker_entry,
            args=(job.jobdir, argv, job.chaos_action, spec.command),
            daemon=True, name=f"repro-batch-{spec.id}")
        proc.start()
        job.proc = proc
        job.status = "running"
        job.used_resume = use_resume
        job.timed_out = False
        job.started_at = time.monotonic()
        job.deadline = (job.started_at + timeout) if timeout else None
        job.attempts += 1
        how = "resumed from snapshot" if use_resume else "started"
        self._log(f"job {spec.id} attempt {job.attempts} {how} "
                  f"(pid {proc.pid})")

    def _kill(self, job: _Job, reason: str) -> None:
        proc = job.proc
        if proc is not None and proc.is_alive():
            proc.kill()  # detlint: ignore[wallclock-sleep]
            proc.join(timeout=5.0)
        if reason == "timeout":
            job.timed_out = True

    def _publish(self, job: _Job) -> None:
        stdout = os.path.join(job.jobdir, worker.STDOUT_NAME)
        result = self.memo.publish(job.key, stdout)
        job.status = "done"
        job.outcome = "done"
        assert self._journal is not None
        self._journal.append({"ev": "done", "job": job.spec.id,
                              "key": job.key, "attempt": job.attempts - 1,
                              "cached": False, "result": result})
        self._log(f"job {job.spec.id} done "
                  f"(attempt {job.attempts}, result {result})")

    def _handle_exit(self, job: _Job) -> None:
        """One attempt ended; record it and decide done/retry/fail."""
        proc = job.proc
        assert proc is not None
        proc.join()
        code = proc.exitcode
        job.proc = None
        assert self._journal is not None
        kind, reason = classify_exit(code, job.timed_out)
        if kind == "done":
            self._publish(job)
            return
        attempt = job.attempts - 1
        if kind in ("crash", "timeout"):
            if kind == "timeout":
                job.timeouts += 1
            else:
                job.crashes += 1
            self._journal.append({"ev": "killed", "job": job.spec.id,
                                  "attempt": attempt, "reason": reason})
        else:
            job.failures += 1
            self._journal.append({"ev": "failed", "job": job.spec.id,
                                  "attempt": attempt, "exit": code,
                                  "permanent": kind == "permanent"})
            if job.used_resume:
                # the snapshot itself is suspect (clean failure while
                # resuming); discard it and retry from scratch
                shutil.rmtree(os.path.join(job.jobdir, worker.CKPT_DIRNAME),
                              ignore_errors=True)
        if kind == "permanent":
            # a deterministic failure re-fails identically on every
            # retry; spending the backoff budget on it only delays the
            # batch's verdict
            job.status = "failed"
            job.outcome = f"failed ({reason})"
            self._log(f"job {job.spec.id} failed permanently ({reason}); "
                      "not retrying a deterministic failure")
            return
        snap_exists = os.path.exists(worker.snapshot_path(job.jobdir))
        if attempt < self.retries:
            delay = self.backoff * (2 ** attempt)
            job.eligible_at = time.monotonic() + delay
            job.resume_next = snap_exists
            job.status = "queued"
            self._journal.append({"ev": "retry", "job": job.spec.id,
                                  "attempt": attempt + 1,
                                  "backoff_s": round(delay, 6),
                                  "resume": snap_exists})
            self._log(f"job {job.spec.id} attempt {attempt + 1} failed "
                      f"({reason}); retrying in {delay:.2f}s"
                      + (" from snapshot" if snap_exists else ""))
        else:
            job.status = "failed"
            job.outcome = f"failed ({reason})"
            self._log(f"job {job.spec.id} failed permanently after "
                      f"{job.attempts} attempt(s): {reason}")

    # -- scheduling ---------------------------------------------------------

    def _running(self) -> List[_Job]:
        return [j for j in self.jobs if j.status == "running"]

    def _reap_and_enforce(self) -> None:
        now = time.monotonic()
        for job in self._running():
            proc = job.proc
            assert proc is not None
            if proc.exitcode is None and job.deadline is not None \
                    and now >= job.deadline:
                self._log(f"job {job.spec.id} exceeded its "
                          "wall-clock budget; killing worker")
                self._kill(job, "timeout")
            if proc.exitcode is not None:
                self._handle_exit(job)

    def _launch_eligible(self) -> None:
        free = self.workers - len(self._running())
        now = time.monotonic()
        running_keys = {j.key for j in self._running()}
        for job in self.jobs:
            if free <= 0:
                break
            if job.status != "queued" or now < job.eligible_at:
                continue
            cached = self.memo.lookup(job.key)
            if cached is not None:
                job.status = "done"
                job.cached = True
                job.outcome = "done (cached)"
                assert self._journal is not None
                self._journal.append({"ev": "done", "job": job.spec.id,
                                      "key": job.key, "attempt": job.attempts,
                                      "cached": True, "result": cached})
                self._log(f"job {job.spec.id} served from the memo cache")
                continue
            if job.key in running_keys:
                continue  # an identical config is in flight; wait for it
            self._spawn(job)
            running_keys.add(job.key)
            free -= 1

    # -- shutdown -----------------------------------------------------------

    def _shutdown(self) -> None:
        """SIGINT path: stop everything, flush the journal."""
        assert self._journal is not None
        for job in self._running():
            proc = job.proc
            if proc is not None and proc.is_alive():
                proc.terminate()  # detlint: ignore[wallclock-sleep]
        deadline = time.monotonic() + 2.0
        for job in self._running():
            proc = job.proc
            if proc is None:
                continue
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if proc.is_alive():
                proc.kill()  # detlint: ignore[wallclock-sleep]
                proc.join(timeout=5.0)
            self._journal.append({"ev": "killed", "job": job.spec.id,
                                  "attempt": job.attempts - 1,
                                  "reason": "interrupted"})
            job.outcome = "interrupted"
        self._journal.append({"ev": "interrupted",
                              "signal": int(self._signal)})
        self._log("interrupted; journal flushed — continue with "
                  "`repro batch --resume`")

    # -- trace merging ------------------------------------------------------

    def _merge_traces(self) -> None:
        if self.trace_out is None:
            return
        from repro.trace import merge_chrome_traces

        slices = []
        for job in self.jobs:
            path = os.path.join(job.jobdir, worker.TRACE_NAME)
            if job.status == "done" and os.path.exists(path):
                with open(path, encoding="utf-8") as fh:
                    slices.append((job.spec.id, json.load(fh)))
        merged = merge_chrome_traces(slices)
        atomic_write(self.trace_out,
                     json.dumps(merged, sort_keys=True,
                                separators=(",", ":")) + "\n",
                     prefix=".trace-")
        self._log(f"merged {len(slices)} job trace(s) into {self.trace_out}")

    # -- reporting ----------------------------------------------------------

    def report_rows(self) -> List[Dict[str, Any]]:
        rows = []
        for job in self.jobs:
            rows.append({
                "job": job.spec.id,
                "command": job.spec.command,
                "attempts": job.attempts,
                "retries": max(0, job.attempts - 1),
                "crashes": job.crashes,
                "timeouts": job.timeouts,
                "outcome": job.outcome or job.status,
                "cached": job.cached,
            })
        return rows

    # -- the run ------------------------------------------------------------

    def run(self) -> int:
        """Run the batch; returns the process exit code (0 = all jobs
        done, 1 = permanent failures, 130 = SIGINT, 143 = SIGTERM)."""
        from repro.analysis.report import batch_report

        if os.path.exists(self.journal_path) and not self.resume:
            raise BatchError(
                f"journal {self.journal_path!r} already exists; pass "
                "--resume to continue that batch or choose a fresh "
                "--out-dir")
        os.makedirs(self.out_dir, exist_ok=True)
        if self.resume:
            self._recover_journal()
        self._journal = Journal(self.journal_path)
        try:
            if not self.resume:
                self._journal.append({"ev": "batch-start",
                                      "schema": journal_mod.SCHEMA,
                                      "resumed": False,
                                      "n_jobs": len(self.jobs)})
            for job in self.jobs:
                if not job.terminal:
                    self._journal.append({"ev": "queued", "job": job.spec.id,
                                          "key": job.key,
                                          "command": job.spec.command})
            self._run_loop()
            if self.interrupted:
                self._shutdown()
            else:
                self._merge_traces()
            done = sum(1 for j in self.jobs if j.status == "done")
            failed = sum(1 for j in self.jobs if j.status == "failed")
            self._journal.append({"ev": "batch-end", "done": done,
                                  "failed": failed,
                                  "interrupted": self.interrupted})
        finally:
            self._journal.close()
        report = batch_report(self.report_rows())
        print(report)
        atomic_write(os.path.join(self.out_dir, "report.txt"), report + "\n",
                     prefix=".report-")
        corrupt = self.counters.get("memo.corrupt")
        if corrupt:
            self._log(f"memo cache: {corrupt} corrupt result(s) detected, "
                      "treated as misses and re-run")
        if self.interrupted:
            return 143 if self._signal == signal.SIGTERM else 130
        return 0 if all(j.status == "done" for j in self.jobs) else 1

    def _run_loop(self) -> None:
        def on_signal(signum: int, frame: Any) -> None:
            self.interrupted = True
            self._signal = signum

        previous = {}
        # SIGTERM gets the same graceful shutdown as ^C: it is what CI
        # cancellations and container runtimes actually deliver, and an
        # unhandled one would kill the pool without flushing the journal
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                previous[signum] = signal.signal(signum, on_signal)
            except ValueError:
                pass  # not the main thread (tests drive the loop directly)
        try:
            while not self.interrupted:
                self._reap_and_enforce()
                if all(j.terminal for j in self.jobs):
                    break
                self._launch_eligible()
                time.sleep(POLL_S)  # detlint: ignore[wallclock-sleep]
        finally:
            for signum, handler in previous.items():
                signal.signal(signum, handler)
