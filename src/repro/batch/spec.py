"""Batch specfile parsing and sha256 job keys.

A specfile is JSON: either a list of job objects or ``{"jobs": [...]}``.
Each job object names a figure driver and its argument config::

    [
      {"command": "fig5", "args": ["--fault-seed", "3"]},
      {"id": "faults-7", "command": "faults",
       "args": ["--fault-plan", "link_loss=0.02", "--fault-seed", "7"],
       "timeout": 120.0}
    ]

``id`` defaults to ``job-NNN-<command>`` and must be unique; ``args``
is the driver's own CLI argument list; ``timeout`` overrides the batch
per-job wall-clock timeout.  The memo key — :func:`job_key` — is the
sha256 of the canonical ``(command, args)`` JSON: because every run is
a pure function of its arguments, byte-identical keys mean
byte-identical stdout, so the key doubles as the result-cache address.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from typing import Any, List, Optional

#: commands that may appear in a specfile: every experiment driver, but
#: not the meta commands (nested batches, resume bookkeeping, the
#: wall-clock perf harness)
_DENIED_COMMANDS = {"batch", "resume", "perf", "list"}


class SpecError(Exception):
    """Raised for an unreadable or invalid specfile (CLI exit 2)."""


@dataclass(frozen=True)
class JobSpec:
    """One experiment: a figure driver plus its argument config."""

    id: str
    command: str
    args: List[str] = field(default_factory=list)
    timeout: Optional[float] = None

    @property
    def argv(self) -> List[str]:
        return [self.command, *self.args]


def job_key(spec: JobSpec) -> str:
    """The sha256 memo key of *spec*'s experiment config.

    Only ``(command, args)`` enter the hash — the id is a label and the
    timeout is a runner knob; neither changes the simulated result.
    """
    canon = json.dumps({"command": spec.command, "args": list(spec.args)},
                       sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _known_commands() -> set:
    # lazy: repro.cli imports repro.batch inside its command function,
    # so importing it here at call time cannot form a cycle
    from repro.cli import COMMANDS

    return set(COMMANDS)


def _parse_job(obj: Any, index: int) -> JobSpec:
    where = f"job {index}"
    if not isinstance(obj, dict):
        raise SpecError(f"{where}: expected an object, got {type(obj).__name__}")
    unknown = set(obj) - {"id", "command", "args", "timeout"}
    if unknown:
        raise SpecError(f"{where}: unknown key(s) {sorted(unknown)} "
                        "(expected id, command, args, timeout)")
    command = obj.get("command")
    if not isinstance(command, str) or not command:
        raise SpecError(f"{where}: 'command' must be a non-empty string")
    if command in _DENIED_COMMANDS:
        raise SpecError(f"{where}: command {command!r} cannot run inside a "
                        "batch (meta command)")
    if command not in _known_commands():
        raise SpecError(f"{where}: unknown command {command!r}")
    args = obj.get("args", [])
    if not isinstance(args, list) or not all(isinstance(a, str) for a in args):
        raise SpecError(f"{where}: 'args' must be a list of strings")
    timeout = obj.get("timeout")
    if timeout is not None:
        # bool is an int subclass (True would be a 1 s budget) and NaN
        # fails every comparison (a budget that never expires)
        if isinstance(timeout, bool) or not isinstance(timeout, (int, float)) \
                or not 0 < timeout < math.inf:
            raise SpecError(f"{where}: 'timeout' must be a finite positive "
                            "number of seconds")
        timeout = float(timeout)
    job_id = obj.get("id", f"job-{index:03d}-{command}")
    if not isinstance(job_id, str) or not job_id:
        raise SpecError(f"{where}: 'id' must be a non-empty string")
    if os.sep in job_id or job_id in (".", ".."):
        raise SpecError(f"{where}: 'id' {job_id!r} must be a plain name "
                        "(it names the job's work directory)")
    return JobSpec(id=job_id, command=command, args=list(args), timeout=timeout)


def load_specfile(path: str) -> List[JobSpec]:
    """Parse *path*; raises :class:`SpecError` with a friendly message
    on any problem (the CLI converts that to exit code 2).

    The document is a single job object, a list of them, or ``{"jobs":
    [...]}``.
    """
    where = f"specfile {path!r}"
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SpecError(f"cannot read {where}: {exc}")
    except ValueError as exc:
        raise SpecError(f"{where} is not valid JSON: {exc}")
    if isinstance(doc, dict) and "command" in doc:
        doc = [doc]
    elif isinstance(doc, dict):
        if set(doc) != {"jobs"}:
            raise SpecError(f"{where}: top-level object must have "
                            "exactly one key, 'jobs' (or be a single job)")
        doc = doc["jobs"]
    if not isinstance(doc, list):
        raise SpecError(f"{where}: expected a JSON list of job "
                        "objects (or {'jobs': [...]})")
    if not doc:
        raise SpecError(f"{where}: no jobs")
    specs = [_parse_job(obj, i) for i, obj in enumerate(doc)]
    seen = set()
    for spec in specs:
        if spec.id in seen:
            raise SpecError(f"duplicate job id {spec.id!r}")
        seen.add(spec.id)
    return specs
