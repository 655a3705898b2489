"""The paper's experiments at paper scale: one test per ``repro.figures``
entry (FIG3-FIG6, XEON6, REG100, TLB8 and ABINIT).

Each runs the entry's paper sweep once, emits its tables (the rows and
series the paper reports) and asserts every claim the entry tags with
its EXPERIMENTS.md section.  The sweeps, tables and claims themselves
live in :mod:`repro.figures`, which ``repro <fig>`` and ``repro perf``
run as well.
"""

import pytest

from conftest import emit
from repro.figures import FIGURES, Harness


@pytest.mark.parametrize("name", list(FIGURES))
def test_figure(benchmark, name):
    fig = FIGURES[name]
    result = benchmark.pedantic(fig.driver, args=(fig.paper, Harness()),
                                rounds=1, iterations=1)
    for block in fig.render_paper(result):
        emit(block)
    failed = [claim.describe() for claim in fig.claims
              if not claim.holds(result)]
    assert not failed, failed
