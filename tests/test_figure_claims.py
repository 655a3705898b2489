"""The paper claims of :mod:`repro.figures` cannot go vacuous.

Every claim must hold on a small real run and fail on at least one
planted regression, a copy of that run's result edited the way a
known regression would change it.  The real runs are cut to the points
the claims read (the NAS ones at class W, where the Fig 6 and §5.2
claims already hold); the paper-scale sweeps run only in
``benchmarks/``.  Each claim's EXPERIMENTS.md tag must name a section
and rows of its tables.
"""

from dataclasses import replace
from pathlib import Path

import pytest

from repro.figures import FIGURES, Harness

KB = 1024
MB = 1024 * 1024
EXPERIMENTS = Path(__file__).resolve().parent.parent / "EXPERIMENTS.md"


@pytest.fixture(scope="module")
def baselines():
    fig3, fig4, fig5, fig6 = (FIGURES[n] for n in ("fig3", "fig4", "fig5", "fig6"))
    nas = fig6.driver(fig6.cli, Harness())
    return {
        "fig3": fig3.driver(replace(fig3.paper, sizes=(1, 8, 32, 64, 128, 512, 2048),
                                    counts=(1, 4)), Harness()),
        "fig4": fig4.driver(replace(fig4.paper, offsets=(0, 1, 8, 63, 64, 127)),
                            Harness()),
        "fig5": fig5.driver(replace(fig5.paper, sizes=(8 * KB, 64 * KB, 256 * KB,
                                                       4 * MB, 16 * MB)), Harness()),
        "fig6": nas,
        "tlb": nas,
    }


# -- planting helpers: each returns an edited copy ---------------------------

def _timing(r, key, **changes):
    return replace(r, timings={**r.timings, key: replace(r.timings[key], **changes)})


def _bandwidths(r, curve, scale, sizes=None):
    res = r.curves[curve]
    rows = [replace(row, bandwidth_mb_s=row.bandwidth_mb_s * scale)
            if sizes is None or row.size in sizes else row for row in res.rows]
    return replace(r, curves={**r.curves, curve: replace(res, rows=rows)})


def _huge_run(r, kernels, **scales):
    """Scale fields of the hugepage run of each of *kernels* (on the
    Opteron) by ratios of the same kernel's small-page run."""
    opteron = dict(r.comparisons["opteron"])
    for kernel in kernels:
        c = opteron[kernel]
        huge = replace(c.huge, **{f: type(getattr(c.small, f))(getattr(c.small, f) * k)
                                  for f, k in scales.items()})
        opteron[kernel] = replace(c, huge=huge)
    return replace(r, comparisons={**r.comparisons, "opteron": opteron})


def _fig4_min_off_64(r):
    worst = max(r.total(1, 8, off) for off in r.sweep.offsets)
    t = r.timings[(1, 8, 64)]
    return _timing(r, (1, 8, 64), poll_ticks=t.poll_ticks + worst - t.total_ticks)


PLANTS = {
    "fig3": {
        "post cost grows with size": lambda r: _timing(
            r, (1, 2048, 0), post_ticks=r.post(1, 2048) + 1),
        "post cost above the paper's range": lambda r: _timing(
            r, (1, 64, 0), post_ticks=1000),
        "128 SGEs post like 128 sends": lambda r: _timing(
            r, (128, 64, 0), post_ticks=128 * r.post(1, 64)),
        "4 SGEs cost half a send more": lambda r: _timing(
            r, (4, 64, 0), poll_ticks=r.timings[(4, 64, 0)].poll_ticks + r.total(1, 64) // 2),
        "1-SGE curve rises before 512 B": lambda r: _timing(
            r, (1, 512, 0), poll_ticks=2 * r.total(1, 1)),
        "1-SGE curve flat past 512 B": lambda r: replace(
            r, timings={**r.timings, (1, 2048, 0): r.timings[(1, 512, 0)]}),
    },
    "fig4": {
        "minimum moved off offset 64": _fig4_min_off_64,
        "flat offset profile": lambda r: replace(r, timings={
            k: r.timings[(1, 8, 0)] for k in r.timings}),
        "swing beyond 10 %": lambda r: _timing(
            r, (1, 8, 1), poll_ticks=r.timings[(1, 8, 1)].poll_ticks + r.total(1, 8, 1) // 5),
    },
    "fig5": {
        # what forcing lazy_dereg=False on the two lazy curves gives
        "lazy curves are the no-lazy curves": lambda r: replace(r, curves={
            **r.curves, (False, True): r.curves[(False, False)],
            (True, True): r.curves[(True, False)]}),
        "hugepage peak 20 % higher": lambda r: _bandwidths(r, (True, True), 1.2),
        "no-lazy hugepages as slow as no-lazy small pages": lambda r: replace(
            r, curves={**r.curves, (True, False): r.curves[(False, False)]}),
        "registration shows at 8 KB": lambda r: _bandwidths(
            _bandwidths(r, (False, False), 0.9, {8 * KB}), (True, False), 0.9, {8 * KB}),
    },
    "fig6": {
        "IS improves overall": lambda r: _huge_run(r, ["IS"], total_ticks=0.9),
        "CG's communication no faster": lambda r: _huge_run(r, ["CG"], comm_ticks=1.0),
        "MG's communication twice as fast": lambda r: _huge_run(r, ["MG"], comm_ticks=0.5),
        "MG slower overall": lambda r: _huge_run(r, ["MG"], total_ticks=1.1),
        "no kernel gains over 1 %": lambda r: _huge_run(
            r, ["CG", "EP", "IS", "LU", "MG"], total_ticks=0.99),
    },
    "tlb": {
        "LU's misses double": lambda r: _huge_run(
            r, ["LU"], tlb_misses_4k=2.0, tlb_misses_2m=0.0),
        "EP's misses unchanged": lambda r: _huge_run(
            r, ["EP"], tlb_misses_4k=1.0, tlb_misses_2m=1.0),
        "EP's computation slower": lambda r: _huge_run(r, ["EP"], compute_ticks=1.1),
    },
}


@pytest.mark.parametrize("name", list(FIGURES))
def test_claims_hold_on_a_real_run(baselines, name):
    result = baselines[name]
    assert [c.describe() for c in FIGURES[name].claims if not c.holds(result)] == []


@pytest.mark.parametrize("name", list(FIGURES))
def test_every_claim_fails_on_a_planted_regression(baselines, name):
    planted = [plant(baselines[name]) for plant in PLANTS[name].values()]
    assert [c.describe() for c in FIGURES[name].claims
            if all(c.holds(p) for p in planted)] == []


@pytest.mark.parametrize("name, plant", [(n, p) for n in PLANTS for p in PLANTS[n]])
def test_every_plant_breaks_a_claim(baselines, name, plant):
    planted = PLANTS[name][plant](baselines[name])
    assert not all(c.holds(planted) for c in FIGURES[name].claims)


def test_claims_are_tagged_with_experiments_rows():
    sections = {}
    for block in EXPERIMENTS.read_text().split("\n## ")[1:]:
        sections[block.split(" ", 1)[0]] = block
    for fig in FIGURES.values():
        for claim in fig.claims:
            assert claim.section in sections, claim.describe()
            for row in claim.rows:
                assert f"\n| {row} |" in sections[claim.section], claim.describe()
