"""Golden outputs: each figure command prints exactly its committed stdout.

Every performance change to the simulator promises "every figure stays
byte-identical"; this pins it.  The files under ``fixtures/figures/``
are the stdout of ``python -m repro <args>`` as the table below lists
them.  The output is the same on every machinery (``REPRO_NO_FOLD``,
``REPRO_NO_FASTPATH``), so the test holds under either switch too.

A change that is *meant* to move a figure regenerates its file with
that command and lists the output change in CHANGES.md; the comparison
itself stays exact.

The ``repro trace fig5 --trace-out`` JSON is pinned by its sha256.  That
pins every span, counter delta and the ``engine.frames`` instants (how
many items and frames the kernel dispatched).  The digest is of the
folded path, so the test drops ``REPRO_NO_FOLD`` from its subprocess's
environment: the unfolded trace has the same ticks, but 524 of its
6,372 events differ — its four ``engine.frames`` instants count the
extra events, and the rest attribute counter deltas differently within
a tick.  ``REPRO_NO_FASTPATH`` leaves the JSON unchanged.
"""

from __future__ import annotations

import hashlib
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
    "faults_link_loss_0.02_seed_7.txt": [
        "faults", "--fault-plan", "link_loss=0.02", "--fault-seed", "7"],
}


#: sha256 of the ``repro trace fig5 --trace-out`` JSON on the folded path
FIG5_TRACE_SHA256 = "adfb2b02a4ca5ab8fe4b60759a970c125291b530ed8d7ccd227b60674abeb0fb"


def _repro(args, cwd, env=None):
    env = dict(os.environ if env is None else env)
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
    env = {k: v for k, v in os.environ.items() if k != "REPRO_NO_FOLD"}
    out = tmp_path / "fig5.json"
    run = _repro(["trace", "fig5", "--trace-out", str(out)], tmp_path, env)
    assert run.returncode == 0, run.stderr
    assert hashlib.sha256(out.read_bytes()).hexdigest() == FIG5_TRACE_SHA256
