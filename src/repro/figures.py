"""The paper's five measurements, each defined once.

Figs 3-6 and the §5.2 TLB counts are the entries of :data:`FIGURES`.
Each :class:`Figure` holds a driver returning a typed result; its sweeps
as plain data (``cli`` for ``repro <name>``, ``paper`` for
``benchmarks/test_figures.py``, ``quick``/``full`` for ``repro perf``);
the payload tuple ``repro perf`` compares between the costing paths; the
command's table and the paper-claims tables; and the paper's claims as
predicates, each tagged with its EXPERIMENTS.md section and rows.
``tlb`` runs the fig6 driver and renders other columns of its result.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Generic, List, Optional, Tuple, TypeVar

from repro.analysis.report import Table, format_series
from repro.faults import FaultPlan
from repro.systems import presets
from repro.systems.machine import MachineSpec
from repro.workloads.imb import IMBResult, SendRecvBenchmark
from repro.workloads.nas import KERNELS
from repro.workloads.nas.common import HugepageComparison, compare_hugepages
from repro.workloads.verbs_micro import WorkRequestTiming, measure_send

KB = 1024
MB = 1024 * 1024

S = TypeVar("S")
R = TypeVar("R")

#: a checkpointable unit: returns ``(result, simulated ticks, cluster(s))``
Unit = Callable[[], Tuple[Any, int, Any]]


def run_directly(name: str, unit: Unit) -> Any:
    """Run *unit* without a ledger and keep its result."""
    return unit()[0]


def _quiet(line: str) -> None:
    """Drop a progress line."""


@dataclass(frozen=True)
class Harness:
    """What a run adds around a driver: ``run_unit(name, unit)`` runs each
    hermetic unit (the CLI passes its checkpoint ledger), the fault plan
    the clusters are built under, and a sink for progress lines."""

    run_unit: Callable[[str, Unit], Any] = run_directly
    fault_plan: Optional[FaultPlan] = None
    progress: Callable[[str], None] = _quiet


@dataclass(frozen=True)
class Claim(Generic[R]):
    """One statement of the paper, as a predicate over a result; tagged
    with its EXPERIMENTS.md section and the rows of its table."""

    section: str
    rows: Tuple[str, ...]
    text: str
    holds: Callable[[R], bool]

    def describe(self) -> str:
        return f"{self.section} [{' / '.join(self.rows)}]: {self.text}"


@dataclass(frozen=True)
class Figure(Generic[S, R]):
    """One measurement: driver, sweeps, payload, tables and claims."""

    name: str
    driver: Callable[[S, Harness], R]
    cli: S
    paper: S
    quick: S
    full: S
    payload: Callable[[R], tuple]
    #: the command's stdout, given a note to append to the table title
    render_cli: Callable[[R, str], str]
    #: the blocks the paper-claims run emits, in order
    render_paper: Callable[[R], List[str]]
    claims: Tuple[Claim[R], ...]


# -- Figs 3 and 4: verbs-level work requests (System p) ----------------------

@dataclass(frozen=True)
class VerbsSweep:
    """One send per (SGEs, SGE size, offset) of the grid, plus ``extra``
    (SGEs, SGE size) points at offset 0."""

    sizes: Tuple[int, ...]
    counts: Tuple[int, ...] = (1,)
    offsets: Tuple[int, ...] = (0,)
    extra: Tuple[Tuple[int, int], ...] = ()


@dataclass(frozen=True)
class VerbsResult:
    sweep: VerbsSweep
    #: (sges, sge_size, offset) -> timing
    timings: Dict[Tuple[int, int, int], WorkRequestTiming]

    def post(self, sges: int, size: int) -> int:
        return self.timings[(sges, size, 0)].post_ticks

    def total(self, sges: int, size: int, offset: int = 0) -> int:
        return self.timings[(sges, size, offset)].total_ticks


def run_verbs(sweep: VerbsSweep, harness: Harness) -> VerbsResult:
    """Figs 3 and 4 driver: one steady-state send per point."""
    points = [(n, s, off) for n in sweep.counts for s in sweep.sizes
              for off in sweep.offsets] + [(n, s, 0) for n, s in sweep.extra]
    return VerbsResult(sweep, {
        (n, s, off): measure_send(sges=n, sge_size=s, offset=off)
        for n, s, off in points})


def _sge_table(r: VerbsResult, title: str) -> str:
    table = Table(["SGE size"] + [f"{n} SGEs" for n in r.sweep.counts], title=title)
    for size in r.sweep.sizes:
        table.add_row([size] + [r.total(n, size) for n in r.sweep.counts])
    return table.render()


def _fig3_cli(r: VerbsResult, note: str) -> str:
    one, many = r.post(1, 64), r.post(128, 64)
    return (_sge_table(r, f"Fig 3: work request duration [TBR ticks] (System p){note}")
            + f"\n\npost: 1 SGE = {one} ticks, 128 SGEs = {many} ticks "
            f"({many / one:.2f}x; the paper: 'only three times higher')")


def _fig3_paper(r: VerbsResult) -> List[str]:
    sizes = r.sweep.sizes
    return ["\n" + _sge_table(r, "FIG3: work request duration [TBR ticks] (System p)")] + [
        format_series(f"{n}-sge", sizes, [r.total(n, s) for s in sizes],
                      x_label="sge_size[B]", y_label="ticks")
        for n in r.sweep.counts]


FIG3_SIZES = (1, 8, 32, 64, 128, 256, 512, 1024, 2048)

FIG3: Figure[VerbsSweep, VerbsResult] = Figure(
    name="fig3",
    driver=run_verbs,
    cli=VerbsSweep(FIG3_SIZES, (1, 2, 4, 8), extra=((128, 64),)),
    paper=VerbsSweep(FIG3_SIZES, (1, 2, 4, 8), extra=((128, 64), (1, 65536))),
    quick=VerbsSweep((8, 64, 512, 2048), (1, 2, 4, 8, 32, 128)),
    full=VerbsSweep(FIG3_SIZES, (1, 2, 4, 8, 32, 128)),
    payload=lambda r: tuple(r.total(n, s) for s in r.sweep.sizes for n in r.sweep.counts),
    render_cli=_fig3_cli,
    render_paper=_fig3_paper,
    claims=(
        Claim("FIG3", ("post cost constant, 1 B – 64 KB",), "one SGE posts in "
              "the same ticks at every size",
              lambda r: len({t.post_ticks for (n, _, _), t in r.timings.items()
                             if n == 1}) == 1),
        Claim("FIG3", ("post cost constant, 1 B – 64 KB",),
              "one SGE posts in 150-950 ticks", lambda r: 150 <= r.post(1, 64) <= 950),
        Claim("FIG3", ("128 SGEs vs 1 SGE (post)",), "128 SGEs post in 2-4x one's",
              lambda r: 2.0 < r.post(128, 64) / r.post(1, 64) < 4.0),
        Claim("FIG3", ("4 SGEs of ≤128 B vs 1 SGE (total)",),
              "4 SGEs of 8-128 B cost < 1.16x one",
              lambda r: all(r.total(4, s) / r.total(1, s) < 1.16 for s in (8, 32, 64, 128))),
        Claim("FIG3", ("1-SGE curve",), "flat to 512 B: < 1.3x the 1-B cost",
              lambda r: r.total(1, 512) < 1.3 * r.total(1, 1)),
        Claim("FIG3", ("1-SGE curve",), "linear beyond: 2048 B > 1.15x 512 B",
              lambda r: r.total(1, 2048) > 1.15 * r.total(1, 512)),
    ),
)


def _offset_table(r: VerbsResult, title: str) -> str:
    table = Table(["offset"] + [f"{s} B" for s in r.sweep.sizes], title=title)
    for off in r.sweep.offsets:
        table.add_row([off] + [r.total(1, s, off) for s in r.sweep.sizes])
    return table.render()


def _fig4_paper(r: VerbsResult) -> List[str]:
    offsets = r.sweep.offsets
    return ["\n" + _offset_table(r, "FIG4: work request duration vs offset [TBR ticks]")] + [
        format_series(f"size-{s}", offsets, [r.total(1, s, off) for off in offsets],
                      x_label="offset[B]", y_label="ticks")
        for s in r.sweep.sizes]


def _by_offset(r: VerbsResult, size: int) -> List[Tuple[int, int]]:
    """One size's (offset, total ticks), in sweep order."""
    return [(off, r.total(1, size, off)) for off in r.sweep.offsets]


def _swing(r: VerbsResult, size: int) -> float:
    ticks = [t for _, t in _by_offset(r, size)]
    return (max(ticks) - min(ticks)) / max(ticks)


FIG4_SIZES = (8, 16, 32, 64)

FIG4: Figure[VerbsSweep, VerbsResult] = Figure(
    name="fig4",
    driver=run_verbs,
    cli=VerbsSweep(FIG4_SIZES, offsets=tuple(range(0, 129, 8))),
    paper=VerbsSweep(FIG4_SIZES, offsets=tuple(sorted({*range(0, 129, 8), 1, 63, 127}))),
    quick=VerbsSweep(FIG4_SIZES, offsets=tuple(range(0, 129, 32))),
    full=VerbsSweep(FIG4_SIZES, offsets=tuple(range(0, 129, 8))),
    payload=lambda r: tuple(r.total(1, s, off) for off in r.sweep.offsets
                            for s in r.sweep.sizes),
    render_cli=lambda r, note: _offset_table(
        r, f"Fig 4: duration vs in-page offset [TBR ticks]{note}"),
    render_paper=_fig4_paper,
    claims=(
        Claim("FIG4", ("preferred offset",), "every size is fastest at offset 64",
              lambda r: all(min(_by_offset(r, s), key=lambda p: p[1])[0] == 64
                            for s in r.sweep.sizes)),
        Claim("FIG4", ("duration varies with offset (8–64 B buffers, offsets 0–128)",),
              "every size swings by (2 %, 10 %] over the offsets",
              lambda r: all(0.02 < _swing(r, s) <= 0.10 for s in r.sweep.sizes)),
    ),
)


# -- Fig 5: IMB SendRecv bandwidth, four placement curves (Opteron) ----------

@dataclass(frozen=True)
class IMBSweep:
    sizes: Tuple[int, ...]
    #: (label, hugepages, lazy deregistration) per curve
    curves: Tuple[Tuple[str, bool, bool], ...]
    iterations: int = 4
    warmup: int = 1


@dataclass(frozen=True)
class IMBCurves:
    sweep: IMBSweep
    #: (hugepages, lazy deregistration) -> sweep result
    curves: Dict[Tuple[bool, bool], IMBResult]

    def bw(self, hugepages: bool, lazy: bool, size: int) -> float:
        return self.curves[(hugepages, lazy)].bandwidth_at(size)

    def uncached(self, hugepages: bool, size: int) -> float:
        """Bandwidth without lazy deregistration over bandwidth with it."""
        return self.bw(hugepages, False, size) / self.bw(hugepages, True, size)


def run_imb(sweep: IMBSweep, harness: Harness) -> IMBCurves:
    """Fig 5 driver: one SendRecv sweep per curve, each a unit."""
    bench = SendRecvBenchmark(presets.opteron_infinihost_pcie)

    def unit(hugepages: bool, lazy: bool) -> Tuple[IMBResult, int, Any]:
        res = bench.run(list(sweep.sizes), hugepages=hugepages, lazy_dereg=lazy,
                        iterations=sweep.iterations, warmup=sweep.warmup,
                        fault_plan=harness.fault_plan)
        cluster = bench.last_cluster
        assert cluster is not None
        return res, cluster.kernel.now, cluster

    return IMBCurves(sweep, {
        (hp, lazy): harness.run_unit(label, lambda hp=hp, lazy=lazy: unit(hp, lazy))
        for label, hp, lazy in sweep.curves})


def _imb_table(r: IMBCurves, title: str) -> str:
    table = Table(["size [KB]"] + [label for label, _, _ in r.sweep.curves], title=title)
    for size in r.sweep.sizes:
        table.add_row([size // KB] + [r.bw(hp, lazy, size) for _, hp, lazy in r.sweep.curves])
    return table.render()


def _curves(*labels: str) -> Tuple[Tuple[str, bool, bool], ...]:
    """Label small/huge with lazy deregistration, then small/huge without."""
    return tuple(zip(labels, (False, True, False, True), (True, True, False, False)))


FIG5_CURVES = _curves("small pages", "hugepages", "small, no lazy dereg",
                      "huge, no lazy dereg")

FIG5: Figure[IMBSweep, IMBCurves] = Figure(
    name="fig5",
    driver=run_imb,
    cli=IMBSweep((1 * KB, 4 * KB, 8 * KB, 16 * KB, 64 * KB, 256 * KB, 1 * MB, 4 * MB),
                 FIG5_CURVES),
    paper=IMBSweep((1 * KB, 4 * KB, 8 * KB, 16 * KB, 64 * KB, 256 * KB, 1 * MB, 4 * MB,
                    16 * MB),
                   _curves("small pages", "hugepages", "small pages, no lazy dereg",
                           "hugepages, no lazy dereg")),
    quick=IMBSweep((1 * MB, 4 * MB, 16 * MB, 32 * MB), FIG5_CURVES[:2], iterations=3),
    full=IMBSweep((256 * KB, 1 * MB, 4 * MB, 16 * MB, 64 * MB), FIG5_CURVES, iterations=5),
    payload=lambda r: tuple(
        (hp, lazy, row.size, row.ticks_per_iter, row.latency_us, row.bandwidth_mb_s)
        for _, hp, lazy in r.sweep.curves for row in r.curves[(hp, lazy)].rows),
    render_cli=lambda r, note: _imb_table(
        r, f"Fig 5: IMB SendRecv bandwidth [MB/s] (AMD Opteron){note}"),
    render_paper=lambda r: [
        "\n" + _imb_table(r, "FIG5: IMB SendRecv bandwidth [MB/s] (AMD Opteron)")],
    claims=(
        Claim("FIG5", ("peak bandwidth",), "hugepages reach 1600-1950 MB/s at 16 MB",
              lambda r: 1600 < r.bw(True, True, 16 * MB) < 1950),
        Claim("FIG5", ("lazy dereg on: small pages = hugepages",),
              "with the cache, page sizes agree within 2 % at 256 KB, 4 MB, 16 MB",
              lambda r: all(abs(r.bw(False, True, s) - r.bw(True, True, s))
                            / r.bw(False, True, s) < 0.02
                            for s in (256 * KB, 4 * MB, 16 * MB))),
        Claim("FIG5", ("lazy dereg off, small pages",), "small pages uncached: "
              "< 0.92x at 4 MB", lambda r: r.uncached(False, 4 * MB) < 0.92),
        Claim("FIG5", ("lazy dereg off, small pages",), "small pages uncached: "
              "< 0.80x at 64 KB", lambda r: r.uncached(False, 64 * KB) < 0.80),
        Claim("FIG5", ("lazy dereg off, hugepages ≥4 MB",), "hugepages uncached: "
              "> 0.95x at 4 MB", lambda r: r.uncached(True, 4 * MB) > 0.95),
        Claim("FIG5", ("lazy dereg off, hugepages ≥4 MB",), "hugepages uncached: "
              "> 0.97x at 16 MB", lambda r: r.uncached(True, 16 * MB) > 0.97),
        Claim("FIG5", ("registration invisible ≤ eager/copy-rendezvous sizes",),
              "small pages uncached: within 1 % at 8 KB",
              lambda r: abs(r.uncached(False, 8 * KB) - 1.0) <= 0.01),
        Claim("FIG5", ("registration invisible ≤ eager/copy-rendezvous sizes",),
              "hugepages uncached: within 1 % at 8 KB",
              lambda r: abs(r.uncached(True, 8 * KB) - 1.0) <= 0.01),
    ),
)


# -- Fig 6 and the §5.2 TLB counts: NAS on small pages vs the library -------

@dataclass(frozen=True)
class NASSweep:
    #: (label, preset, hugepage pool [pages]) per machine
    machines: Tuple[Tuple[str, Callable[[], MachineSpec], int], ...]
    klass: str
    #: (machine label, kernel, class) where a run uses another class
    class_overrides: Tuple[Tuple[str, str, str], ...] = ()


@dataclass(frozen=True)
class NASResult:
    sweep: NASSweep
    #: machine label -> kernel -> comparison
    comparisons: Dict[str, Dict[str, HugepageComparison]]


def run_nas_comparisons(sweep: NASSweep, harness: Harness) -> NASResult:
    """Fig 6 driver: every kernel on every machine, small pages then the
    preloaded library; one unit per comparison, named ``<kernel>:<class>``
    (prefixed ``<machine>:`` when the sweep has several machines)."""
    out: Dict[str, Dict[str, HugepageComparison]] = {}
    for label, factory, pool in sweep.machines:
        out[label] = {}
        for kernel, prog in KERNELS.items():
            klass = next((c for m, k, c in sweep.class_overrides
                          if (m, k) == (label, kernel)), sweep.klass)

            def unit(factory: Callable[[], MachineSpec] = factory,
                     prog: Callable[..., Any] = prog, klass: str = klass,
                     pool: int = pool) -> Tuple[HugepageComparison, int, Any]:
                sink: List[Any] = []
                c = compare_hugepages(prog, factory(), klass=klass, nas_hugepage_pool=pool,
                                      cluster_sink=sink, fault_plan=harness.fault_plan)
                return c, sum(cl.kernel.now for cl in sink), sink

            name = f"{kernel}:{klass}"
            if len(sweep.machines) > 1:
                name = f"{label}:{name}"
            out[label][kernel] = harness.run_unit(name, unit)
            harness.progress(f"  {kernel} done")
    return NASResult(sweep, out)


def _nas_payload(r: NASResult) -> tuple:
    return tuple(
        (kernel, c.small.total_ticks, c.huge.total_ticks, c.small.comm_ticks,
         c.huge.comm_ticks, c.small.compute_ticks, c.huge.compute_ticks,
         c.small.tlb_misses_4k, c.small.tlb_misses_2m, c.huge.tlb_misses_4k,
         c.huge.tlb_misses_2m, c.small.regcache_hits, c.small.regcache_misses,
         c.huge.regcache_hits, c.huge.regcache_misses)
        for on in r.comparisons.values() for kernel, c in on.items())


def _nas_table(r: NASResult, machine: str, columns: List[str], title: str,
               row: Callable[[HugepageComparison], List[Any]]) -> str:
    table = Table(["kernel"] + columns, title=title)
    for kernel, c in r.comparisons[machine].items():
        table.add_row([kernel] + row(c))
    return table.render()


def _improvements(c: HugepageComparison) -> List[Any]:
    return [c.comm_improvement_pct, c.other_improvement_pct, c.overall_improvement_pct,
            c.tlb_miss_ratio]


def _opteron(r: NASResult) -> Dict[str, HugepageComparison]:
    return r.comparisons["opteron"]


OPTERON = (("opteron", presets.opteron_infinihost_pcie, 720),)

FIG6: Figure[NASSweep, NASResult] = Figure(
    name="fig6",
    driver=run_nas_comparisons,
    cli=NASSweep(OPTERON, "W"),
    # the paper ran class C, MG on the 2 GB Opteron nodes at class B
    paper=NASSweep(OPTERON + (("systemp", presets.systemp_ehca, 2048),), "C",
                   class_overrides=(("opteron", "MG", "B"),)),
    quick=NASSweep(OPTERON, "W"),
    full=NASSweep(OPTERON, "B"),
    payload=_nas_payload,
    render_cli=lambda r, note: _nas_table(
        r, "opteron", ["comm %", "other %", "overall %", "TLB x"],
        f"Fig 6: NAS class {r.sweep.klass}, AMD Opteron, 2 nodes x 4 ranks{note}",
        _improvements),
    render_paper=lambda r: ["\n" + _nas_table(
        r, label, ["class", "comm %", "other %", "overall %", "TLB x"],
        f"FIG6: hugepage improvement, {label} (2 nodes x 4 procs)",
        lambda c: [c.small.klass] + _improvements(c)) for label, _, _ in r.sweep.machines],
    claims=(
        Claim("FIG6", ("CG", "EP", "LU"), "communication gains > 8 % on the Opteron",
              lambda r: all(_opteron(r)[k].comm_improvement_pct > 8.0
                            for k in ("CG", "EP", "LU"))),
        Claim("FIG6", ("IS", "MG"), "communication gains < 8 % on the Opteron",
              lambda r: all(_opteron(r)[k].comm_improvement_pct < 8.0 for k in ("MG", "IS"))),
        Claim("FIG6", ("CG", "EP", "LU", "MG"), "the whole run is faster on the Opteron",
              lambda r: all(_opteron(r)[k].overall_improvement_pct > 0.0
                            for k in ("CG", "EP", "LU", "MG"))),
        Claim("FIG6", ("IS",), "IS as a whole is slower on the Opteron",
              lambda r: _opteron(r)["IS"].overall_improvement_pct < 0.0),
        Claim("FIG6", ("LU",), "the best overall gain exceeds 10 %",
              lambda r: max(c.overall_improvement_pct for c in _opteron(r).values()) > 10.0),
    ),
)

TLB: Figure[NASSweep, NASResult] = replace(
    FIG6,
    name="tlb",
    paper=NASSweep(OPTERON, "B"),
    render_cli=lambda r, note: _nas_table(
        r, "opteron", ["misses 4K run", "misses hugepage run", "ratio"],
        f"§5.2 TLB misses, NAS class {r.sweep.klass} (Opteron){note}",
        lambda c: [c.small.tlb_misses_total, c.huge.tlb_misses_total, c.tlb_miss_ratio]),
    render_paper=lambda r: ["\n" + _nas_table(
        r, "opteron",
        ["misses (4K run)", "misses (hugepage run)", "ratio", "other impr. %"],
        "TLB8: data-TLB misses, small pages vs preloaded library (Opteron)",
        lambda c: [c.small.tlb_misses_total, c.huge.tlb_misses_total, c.tlb_miss_ratio,
                   c.other_improvement_pct])],
    claims=(
        Claim("TLB8", ("CG", "EP", "IS", "MG"), "more data-TLB misses with hugepages",
              lambda r: all(_opteron(r)[k].tlb_miss_ratio > 1.0
                            for k in ("CG", "EP", "IS", "MG"))),
        Claim("TLB8", ("LU",), "LU's misses do not increase",
              lambda r: _opteron(r)["LU"].tlb_miss_ratio <= 1.0),
        Claim("TLB8", ("EP",), "EP is the extreme, 4 < ratio < 9",
              lambda r: 4.0 < _opteron(r)["EP"].tlb_miss_ratio < 9.0),
        Claim("TLB8", ("EP",), "EP's computation still improves",
              lambda r: _opteron(r)["EP"].other_improvement_pct > 0.0),
    ),
)

#: every figure, by command name
FIGURES: Dict[str, Figure[Any, Any]] = {fig.name: fig for fig in (FIG3, FIG4, FIG5, FIG6, TLB)}
