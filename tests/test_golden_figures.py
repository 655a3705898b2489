"""Golden outputs: each figure command prints exactly its committed stdout.

Every performance change to the simulator promises "every figure stays
byte-identical"; this pins it.  The files under ``fixtures/figures/``
are the stdout of ``python -m repro <args>`` as the table below lists
them.  The output is the same on every machinery (``REPRO_NO_FOLD``,
``REPRO_NO_FASTPATH``), so the test holds under either switch too.

A change that is *meant* to move a figure regenerates its file with
that command and lists the output change in CHANGES.md; the comparison
itself stays exact.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "fixtures" / "figures"

#: fixture file -> the CLI arguments whose stdout it holds
GOLDEN = {
    "fig3.txt": ["fig3"],
    "fig4.txt": ["fig4"],
    "fig5.txt": ["fig5"],
    "fig6.txt": ["fig6"],
    "pingpong.txt": ["pingpong"],
    "faults_link_loss_0.02_seed_7.txt": [
        "faults", "--fault-plan", "link_loss=0.02", "--fault-seed", "7"],
}


@pytest.mark.parametrize("fixture", sorted(GOLDEN))
def test_figure_stdout_matches_golden(fixture, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    run = subprocess.run(
        [sys.executable, "-m", "repro", *GOLDEN[fixture]],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == (FIXTURES / fixture).read_text()
