"""The paper claims of :mod:`repro.figures` cannot go vacuous.

Every claim must hold on a small real run and fail on at least one
planted regression, a copy of that run's result edited the way a
known regression would change it.  The real runs are cut to the points
the claims read (the NAS ones at class W, where the Fig 6 and §5.2
claims already hold); the paper-scale sweeps run only in
``benchmarks/``, except XEON6's, REG100's and ABINIT's, which take
about a second together.  Each claim's EXPERIMENTS.md tag must name a
section and rows of its tables.

An effect must also hold for its modelled reason: with the mechanism
DESIGN.md names switched off, the effect must vanish.
"""

from dataclasses import replace
from pathlib import Path

import pytest

from repro.figures import FIGURES, Harness
from repro.ib.att import ATTConfig
from repro.ib.registration import RegistrationCosts
from repro.mem.physical import PAGE_2M, PAGE_4K
from repro.systems import presets

KB = 1024
MB = 1024 * 1024
EXPERIMENTS = Path(__file__).resolve().parent.parent / "EXPERIMENTS.md"


@pytest.fixture(scope="module")
def baselines():
    fig3, fig4, fig5, fig6 = (FIGURES[n] for n in ("fig3", "fig4", "fig5", "fig6"))
    nas = fig6.driver(fig6.cli, Harness())
    return {
        **{n: FIGURES[n].driver(FIGURES[n].paper, Harness())
           for n in ("xeon", "registration", "abinit")},
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


def _scaled(res, scale, sizes=None):
    """An IMB result with the bandwidth at *sizes* (default all) scaled."""
    return replace(res, rows=[replace(row, bandwidth_mb_s=row.bandwidth_mb_s * scale)
                              if sizes is None or row.size in sizes else row
                              for row in res.rows])


def _bandwidths(r, curve, scale, sizes=None):
    return replace(r, curves={**r.curves, curve: _scaled(r.curves[curve], scale, sizes)})


def _run(r, label, res):
    return replace(r, runs={**r.runs, label: res})


def _reg(r, patched, size, ns):
    """Set the 2 MB registration cost of *size* for one driver state."""
    return replace(r, ns={**r.ns, (patched, PAGE_2M, size): ns})


def _app(r, name, **changes):
    return replace(r, app={**r.app, name: replace(r.app[name], **changes)})


def _library_speedup(replays, speedup):
    """Replays where libc's time is *speedup* times the library's."""
    libc = replays["libc"].total_ns
    return {**replays, "hugepage_lib": replace(replays["hugepage_lib"],
                                               alloc_ns=libc / speedup, free_ns=0.0)}


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
    "xeon": {
        "the patched driver gains nothing on the Xeon": lambda r: _run(
            r, "xeon patched", r.runs["xeon stock"]),
        "the patched driver gains 10 % on the Xeon": lambda r: _run(
            r, "xeon patched", _scaled(r.runs["xeon stock"], 1.1)),
        "the Opteron control gains 5 %": lambda r: _run(
            r, "opteron patched", _scaled(r.runs["opteron stock"], 1.05)),
    },
    "registration": {
        "2 MB pages at 64 MB cost half of 4 KB pages": lambda r: _reg(
            r, True, 64 * MB, r.ns[(True, PAGE_4K, 64 * MB)] / 2),
        "2 MB pages at 16 MB cost 4 % of 4 KB pages": lambda r: _reg(
            r, True, 16 * MB, r.ns[(True, PAGE_4K, 16 * MB)] * 0.04),
        "the ratio rises from 1 MB to 4 MB": lambda r: _reg(
            r, True, 4 * MB, r.ns[(True, PAGE_4K, 4 * MB)] * 0.2),
        "the stock driver uploads 2 MB entries": lambda r: _reg(
            r, False, 16 * MB, r.ns[(True, PAGE_2M, 16 * MB)]),
    },
    "abinit": {
        "the cold library only 2x faster": lambda r: replace(
            r, cold=_library_speedup(r.cold, 2.0)),
        "the warm library only 4x faster": lambda r: replace(
            r, warm=_library_speedup(r.warm, 4.0)),
        "the library saves no allocator time": lambda r: _app(
            r, "hugepage_lib", alloc_ns=r.app["libc"].alloc_ns),
        "the library's run longer than libc's": lambda r: _app(
            r, "hugepage_lib", total_ns=r.app["libc"].total_ns * 1.01),
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


def _xeon_without_att_fetch():
    return replace(presets.xeon_infinihost_pcix(), att=ATTConfig(entries=64, fetch_ns=0.0))


def test_xeon_gain_vanishes_without_att_fetch_stalls():
    # XEON6's mechanism: the patched driver gains because 2 MB entries
    # miss the adapter's ATT less; with free ATT fetches there is
    # nothing left to gain
    xeon = FIGURES["xeon"]
    sweep = replace(xeon.cli, runs=tuple((label, _xeon_without_att_fetch, patched)
                                         for label, _, patched in xeon.cli.runs))
    result = xeon.driver(sweep, Harness())
    assert [result.gain_pct("xeon", s) for s in sweep.sizes] == [0.0, 0.0, 0.0]
    assert not xeon.claims[0].holds(result)


def _small_over_huge_uncached(r, sizes):
    return [r.bw(False, False, s) / r.bw(True, False, s) for s in sizes]


def test_fig5_small_page_deficit_vanishes_without_per_page_registration(
        baselines, monkeypatch):
    # Fig 5's mechanism: without lazy deregistration small pages lose
    # because every registration pins, translates and uploads 512x more
    # pages; with those per-page terms free the deficit closes
    stock = presets.opteron_infinihost_pcie

    def per_page_free(*args, **kwargs):
        return replace(stock(*args, **kwargs), reg_costs=RegistrationCosts(
            per_4k_pin_ns=0, per_2m_pin_ns=0, per_page_translate_ns=0,
            per_entry_upload_ns=0, per_entry_dereg_ns=0))

    assert _small_over_huge_uncached(baselines["fig5"], [4 * MB])[0] < 0.99
    monkeypatch.setattr(presets, "opteron_infinihost_pcie", per_page_free)
    fig5 = FIGURES["fig5"]
    result = fig5.driver(fig5.cli, Harness())
    assert not fig5.claims[2].holds(result)
    large = [s for s in fig5.cli.sizes if s >= 64 * KB]
    assert all(abs(ratio - 1.0) <= 0.01
               for ratio in _small_over_huge_uncached(result, large))
