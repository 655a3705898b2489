"""Shared benchmark configuration.

Every benchmark regenerates one of the paper's tables or figures, or
an ablation: it runs the relevant simulation once
(``benchmark.pedantic(..., rounds=1)`` — the interesting time is
*simulated* time, not harness wall time), prints the same rows/series
the paper reports and asserts the paper's shape claims.  The ablations
also attach their headline numbers to ``benchmark.extra_info``; the
paper's experiments (``test_figures.py``) leave that to their tables.

The emitted tables go to two places: the live stdout (visible with
``pytest -s``) and ``.bench_build/bench_results.txt`` under the
repository root (git-ignored), which the first `emit` of a run truncates — so
a plain ``pytest benchmarks/ --benchmark-only`` always leaves the full
set of regenerated tables on disk even though pytest captures stdout,
without dirtying the tree.  The claims run in the order of their names
(a ``test_figures.py`` test by its figure's, any other by its module's),
so the tables land in one fixed order.
"""

import pathlib
import sys

RESULTS_PATH = (pathlib.Path(__file__).resolve().parent.parent
                / ".bench_build" / "bench_results.txt")
_truncated = False


def emit(text: str) -> None:
    """Record a regenerated table/series (stdout + the results file)."""
    global _truncated
    mode = "a" if _truncated else "w"
    if not _truncated:
        RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    _truncated = True
    with open(RESULTS_PATH, mode) as fh:
        fh.write(text + "\n")
    sys.__stdout__.write(text + "\n")
    sys.__stdout__.flush()


def pytest_collection_modifyitems(items) -> None:
    items.sort(key=lambda item: item.callspec.params["name"]
               if item.module.__name__ == "test_figures"
               else item.module.__name__[len("test_"):])
