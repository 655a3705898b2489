"""Crash-tolerant batch experiment runner (``repro batch``).

The paper's placement results come from sweeping many (figure,
allocator, size, seed) configurations; at that scale the runner itself
must degrade gracefully — a SIGKILLed worker, a wedged event loop or a
Ctrl-C must never cost completed work.  This package is that layer:

:mod:`repro.batch.spec`
    Parses the JSON specfile (a list of experiment specs: figure
    driver + argument config) and derives each job's sha256 memo key.
:mod:`repro.batch.journal`
    The append-only write-ahead job journal (``jobs.jsonl``): every
    state transition (queued → running → done/failed/killed) is an
    fsynced JSON line, a torn final line from a crash is tolerated on
    replay, and ``--resume`` compacts and continues the journal.
:mod:`repro.batch.memo`
    The sha256-keyed result cache: determinism makes (command, args)
    an exact cache key, so a re-run of the same spec is served from
    ``results/<key>.out`` without simulating.
:mod:`repro.batch.worker`
    The per-job worker process: runs one ``repro`` command with
    checkpointing injected, captures stdout/stderr, and hosts the
    seeded chaos actions (self-SIGKILL / stall at a snapshot
    boundary) that exercise the recovery path deterministically.
:mod:`repro.batch.supervisor`
    The supervision loop: a bounded pool of worker processes, per-job
    wall-clock timeouts, bounded retry with exponential backoff,
    crash isolation (a dead worker is respawned and its job resumed
    from its last ``repro.checkpoint`` snapshot), graceful SIGINT
    shutdown that flushes the journal, and the batch degradation
    report.

See ``docs/batch_runner.md`` for the spec format, journal schema and
crash-recovery guarantees.
"""

from repro.batch.chaos import ChaosPlan, parse_chaos
from repro.batch.journal import Journal, JournalError, fold_jobs, read_journal
from repro.batch.memo import MemoCache
from repro.batch.spec import JobSpec, SpecError, job_key, load_specfile
from repro.batch.supervisor import BatchError, BatchSupervisor, classify_exit

__all__ = [
    "BatchError",
    "BatchSupervisor",
    "ChaosPlan",
    "Journal",
    "JournalError",
    "JobSpec",
    "MemoCache",
    "SpecError",
    "classify_exit",
    "fold_jobs",
    "job_key",
    "load_specfile",
    "parse_chaos",
    "read_journal",
]
