"""Golden outputs: each figure command prints exactly its committed stdout.

Every performance change to the simulator promises "every figure stays
byte-identical"; this pins it.  The files under ``fixtures/figures/``
are the stdout of ``python -m repro <args>`` as the table below lists
them.  The output is the same on both costing paths, so the test holds
under ``REPRO_NO_FASTPATH`` too.

A change that is *meant* to move a figure regenerates its file with
that command and lists the output change in CHANGES.md; the comparison
itself stays exact.

The ``repro trace fig5 --trace-out`` JSON is pinned by its sha256.  That
pins every span, counter delta and the ``engine.frames`` instants (how
many items and frames the kernel dispatched).  ``REPRO_NO_FASTPATH``
leaves the JSON unchanged.

The digest moved once without a figure moving: when a tracer stopped
pinning the adapter to per-message generator processes, the traced run
began to dispatch the untraced run's events.  Its four ``engine.frames``
instants went from 4,298/4,298/4,442/4,442 events to 2,546/2,546/
2,690/2,690, and 160 events attribute their counter deltas differently
within a tick (the same spans close at the same ticks, in the same
order).  ``FIG5_SPAN_SIGNATURE_SHA256`` pins what did not move: every
span and instant, with its thread, ticks and arguments.

It moved again when the adapter's generator verbs became adapters over
their callback forms: a process waiting on a verb (endpoint setup's
slab registration and its pre-posted receives) costs one more kernel
event.  Each ``engine.frames`` instant counts 18 more events (2,564/
2,564/2,708/2,708; frames unchanged), and on each node one ``hca.post_recv``
delta moves from the first ``ib.mr.register`` span to the ``mpi.setup``
span open at the same tick.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "fixtures" / "figures"

#: fixture file -> the CLI arguments whose stdout it holds
GOLDEN = {
    "abinit.txt": ["abinit"],
    "fig3.txt": ["fig3"],
    "fig4.txt": ["fig4"],
    "fig5.txt": ["fig5"],
    "fig6.txt": ["fig6"],
    "pingpong.txt": ["pingpong"],
    "tlb.txt": ["tlb"],
    "faults_link_loss_0.02_seed_7.txt": [
        "faults", "--fault-plan", "link_loss=0.02", "--fault-seed", "7"],
}


#: sha256 of the sorted span signature of ``repro trace fig5`` (see
#: :func:`_span_signature`); the same on both costing paths
FIG5_SPAN_SIGNATURE_SHA256 = (
    "cf16bfa01a907dccc282822e5f41d2fa29f972dfc742c74c0f1af2b88d470bf6")

#: sha256 of the ``repro trace fig5 --trace-out`` JSON
FIG5_TRACE_SHA256 = "4e6ce9a4db69e33bff0f321fe0b4b778a585114dab2452813ad653dc09194bec"


def _repro(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("fixture", sorted(GOLDEN))
def test_figure_stdout_matches_golden(fixture, tmp_path):
    run = _repro(GOLDEN[fixture], tmp_path)
    assert run.returncode == 0, run.stderr
    assert run.stdout == (FIXTURES / fixture).read_text()


def test_fig5_trace_matches_golden_digest(tmp_path):
    out = tmp_path / "fig5.json"
    run = _repro(["trace", "fig5", "--trace-out", str(out)], tmp_path)
    assert run.returncode == 0, run.stderr
    assert hashlib.sha256(out.read_bytes()).hexdigest() == FIG5_TRACE_SHA256


def _span_signature(doc):
    """What each span and instant of a trace says, in a canonical order.

    One entry per ``X`` or ``i`` record: its name, its thread's name
    (resolved through the ``M`` records), ``ts``, ``dur`` and its args
    without the ``counters`` deltas.  The ``engine.*`` records, which
    count kernel work, are left out, so the signature holds for every
    machinery that runs the same model.
    """
    threads = {(ev["pid"], ev["tid"]): ev["args"]["name"]
               for ev in doc["traceEvents"]
               if ev["ph"] == "M" and ev["name"] == "thread_name"}
    entries = []
    for ev in doc["traceEvents"]:
        if ev["ph"] not in ("X", "i") or ev["name"].startswith("engine."):
            continue
        args = {k: v for k, v in ev.get("args", {}).items() if k != "counters"}
        entries.append(json.dumps(
            [ev["name"], threads.get((ev["pid"], ev["tid"])), ev["ts"],
             ev.get("dur"), args], sort_keys=True))
    return "\n".join(sorted(entries))


def test_fig5_trace_span_signature(tmp_path):
    """Every span and instant of the fig5 trace, on whichever costing
    path the environment selects."""
    out = tmp_path / "fig5.json"
    run = _repro(["trace", "fig5", "--trace-out", str(out)], tmp_path)
    assert run.returncode == 0, run.stderr
    signature = _span_signature(json.loads(out.read_text()))
    digest = hashlib.sha256(signature.encode()).hexdigest()
    assert digest == FIG5_SPAN_SIGNATURE_SHA256
