"""The paper's experiments, each defined once.

Figs 3-6, the §5.1 Xeon driver patch and registration cost, the §5.2
TLB counts and the §2/§3.2 Abinit allocator comparison are the entries
of :data:`FIGURES`.  Each :class:`Figure` holds a driver returning a
typed result; its sweeps as plain data (``cli`` for ``repro <name>``,
``paper`` for ``benchmarks/test_figures.py``); the command's table and
the paper-claims tables; and the paper's claims as predicates, each
tagged with its EXPERIMENTS.md section and rows.  ``tlb`` runs the fig6
driver and renders other columns of its result.  ``repro perf`` keeps
its own sweeps and payloads of fig3-fig6 (:mod:`repro.perf`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Generic, List, Optional, Tuple, TypeVar

from repro.alloc import (HugepageLibraryAllocator, LibcAllocator, LibhugepageallocAllocator,
                         LibhugetlbfsAllocator, ReplayResult, abinit_like_trace, replay)
from repro.analysis.report import Table, format_series
from repro.engine import SimKernel
from repro.faults import FaultPlan
from repro.ib.verbs import ProtectionDomain
from repro.mem import AddressSpace, HugeTLBfs, PhysicalMemory
from repro.mem.physical import PAGE_2M, PAGE_4K
from repro.systems import presets
from repro.systems.machine import Machine, MachineSpec
from repro.workloads.abinit import AbinitResult, compare_allocators
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
    """One measurement: driver, sweeps, tables and claims."""

    name: str
    driver: Callable[[S, Harness], R]
    cli: S
    paper: S
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


# -- XEON6 and REG100: the §5.1 driver patch and registration cost ---------

@dataclass(frozen=True)
class DriverSweep:
    """Hugepage buffers with lazy deregistration, one SendRecv sweep per
    run on a fresh cluster (earlier sizes warm the ATT for later ones)."""

    sizes: Tuple[int, ...]
    #: (label, preset, patched driver) per run
    runs: Tuple[Tuple[str, Callable[[], MachineSpec], bool], ...]


@dataclass(frozen=True)
class DriverRuns:
    sweep: DriverSweep
    #: run label -> sweep result
    runs: Dict[str, IMBResult]

    def bw(self, label: str, size: int) -> float:
        return self.runs[label].bandwidth_at(size)

    def gain_pct(self, machine: str, size: int) -> float:
        """The patched driver's bandwidth over the stock one's, in % gained."""
        stock = self.bw(f"{machine} stock", size)
        return (self.bw(f"{machine} patched", size) - stock) / stock * 100


def run_driver_patch(sweep: DriverSweep, harness: Harness) -> DriverRuns:
    """XEON6 driver: one SendRecv sweep per run."""
    return DriverRuns(sweep, {
        label: SendRecvBenchmark(preset).run(list(sweep.sizes), hugepages=True,
                                             lazy_dereg=True,
                                             driver_hugepage_aware=patched)
        for label, preset, patched in sweep.runs})


def _driver_table(r: DriverRuns, title: str, columns: List[str]) -> str:
    """The Xeon's stock, patched and gain columns, then every other run."""
    others = [label for label, _, _ in r.sweep.runs if not label.startswith("xeon ")]
    table = Table(["size [KB]"] + columns, title=title)
    for size in r.sweep.sizes:
        table.add_row([size // KB, r.bw("xeon stock", size), r.bw("xeon patched", size),
                       r.gain_pct("xeon", size)] + [r.bw(label, size) for label in others])
    return table.render()


XEON_RUNS = (("xeon stock", presets.xeon_infinihost_pcix, False),
             ("xeon patched", presets.xeon_infinihost_pcix, True))

XEON: Figure[DriverSweep, DriverRuns] = Figure(
    name="xeon",
    driver=run_driver_patch,
    cli=DriverSweep((256 * KB, 1 * MB, 4 * MB), XEON_RUNS),
    paper=DriverSweep((64 * KB, 256 * KB, 1 * MB, 4 * MB, 16 * MB), XEON_RUNS + (
        ("opteron stock", presets.opteron_infinihost_pcie, False),
        ("opteron patched", presets.opteron_infinihost_pcie, True))),
    render_cli=lambda r, note: _driver_table(
        r, f"Xeon/PCI-X: hugepage buffers, OpenIB driver patch{note}",
        ["stock driver", "patched driver", "gain %"]),
    render_paper=lambda r: ["\n" + _driver_table(
        r, "XEON6: hugepage buffers, stock vs patched driver [MB/s]",
        ["Xeon 4K->HCA", "Xeon 2M->HCA", "gain %", "Opteron 4K->HCA", "Opteron 2M->HCA"])],
    claims=(
        Claim("XEON6", ("hugepage buffers + lazy dereg, patched vs stock driver on Xeon/PCI-X",),
              "the patched driver's best gain at >= 256 KB is 2-8 % ('up to 6 %')",
              lambda r: 2.0 < max(r.gain_pct("xeon", s) for s in r.sweep.sizes
                                  if s >= 256 * KB) < 8.0),
        Claim("XEON6", ("same comparison on Opteron/PCIe",),
              "the Opteron control differs by < 2 % at 1 MB and 4 MB",
              lambda r: all(abs(r.gain_pct("opteron", s)) < 2.0 for s in (1 * MB, 4 * MB))),
    ),
)


@dataclass(frozen=True)
class RegistrationSweep:
    sizes: Tuple[int, ...]
    #: driver states (patched = hugepage-aware), one Opteron machine each
    drivers: Tuple[bool, ...]


@dataclass(frozen=True)
class RegistrationResult:
    sweep: RegistrationSweep
    #: (patched driver, page size, buffer size) -> registration ns
    ns: Dict[Tuple[bool, int, int], float]

    def us(self, patched: bool, page_size: int, size: int) -> float:
        return self.ns[(patched, page_size, size)] / 1000

    def ratio(self, size: int) -> float:
        """2 MB over 4 KB pages with the patched driver."""
        return self.ns[(True, PAGE_2M, size)] / self.ns[(True, PAGE_4K, size)]


def run_registration(sweep: RegistrationSweep, harness: Harness) -> RegistrationResult:
    """REG100 driver: register and release each size on 4 KB, then 2 MB
    pages."""
    ns: Dict[Tuple[bool, int, int], float] = {}
    for patched in sweep.drivers:
        machine = Machine(SimKernel(), presets.opteron_infinihost_pcie(
            hugepages=256, hugepage_aware_driver=patched))
        proc = machine.new_process()
        pd = ProtectionDomain.fresh()
        for size in sweep.sizes:
            for page_size in (PAGE_4K, PAGE_2M):
                vma = proc.aspace.mmap(size, page_size=page_size)
                mr, ns[(patched, page_size, size)] = machine.reg_engine.register(
                    proc.aspace, pd, vma.start, size)
                machine.reg_engine.deregister(proc.aspace, mr)
                proc.aspace.munmap(vma.start)
    return RegistrationResult(sweep, ns)


def _registration_table(r: RegistrationResult, title: str, columns: List[str]) -> str:
    """The patched driver's costs and ratio, then the stock driver's 2 MB
    cost when the sweep ran it."""
    table = Table(["size [KB]"] + columns, title=title)
    for size in r.sweep.sizes:
        stock = [r.us(False, PAGE_2M, size)] if False in r.sweep.drivers else []
        table.add_row([size // KB, r.us(True, PAGE_4K, size), r.us(True, PAGE_2M, size),
                       r.ratio(size) * 100] + stock)
    return table.render()


def _ratios(r: RegistrationResult) -> List[float]:
    return [r.ratio(s) for s in r.sweep.sizes]


REGISTRATION: Figure[RegistrationSweep, RegistrationResult] = Figure(
    name="registration",
    driver=run_registration,
    cli=RegistrationSweep((64 * KB, 1 * MB, 4 * MB, 16 * MB, 64 * MB), (True,)),
    paper=RegistrationSweep((64 * KB, 256 * KB, 1 * MB, 4 * MB, 16 * MB, 64 * MB),
                            (True, False)),
    render_cli=lambda r, note: _registration_table(
        r, f"Registration cost (patched driver){note}",
        ["4K pages [us]", "2M pages [us]", "ratio %"]),
    render_paper=lambda r: ["\n" + _registration_table(
        r, "REG100: memory registration cost (patched driver unless noted)",
        ["4K pages [us]", "2M pages [us]", "2M/4K %", "2M stock driver [us]"])],
    claims=(
        Claim("REG100", ("hugepage registration for large buffers",),
              "2M/4K < 2 % at 64 MB ('down to 1 %')", lambda r: r.ratio(64 * MB) < 0.02),
        Claim("REG100", ("hugepage registration for large buffers",),
              "2M/4K < 3 % at 16 MB", lambda r: r.ratio(16 * MB) < 0.03),
        Claim("REG100", ("hugepage registration for large buffers",),
              "2M/4K falls monotonically with size",
              lambda r: _ratios(r) == sorted(_ratios(r), reverse=True)),
        Claim("REG100", ("without the driver patch",),
              "the stock driver's 2 MB registration costs > 5x the patched one's at 16 MB",
              lambda r: r.ns[(False, PAGE_2M, 16 * MB)] > 5 * r.ns[(True, PAGE_2M, 16 * MB)]),
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


# -- ABINIT: the §2/§3.2 allocator comparison -------------------------------

@dataclass(frozen=True)
class AbinitSweep:
    #: SCF iterations of the Abinit-like trace
    iterations: int
    #: first replay the bare trace under the four allocators, cold then warm
    replay: bool


@dataclass(frozen=True)
class AllocatorRuns:
    sweep: AbinitSweep
    #: allocator -> its first (cold) and second (warm) replay on one heap
    cold: Dict[str, ReplayResult]
    warm: Dict[str, ReplayResult]
    #: allocator -> the application run (allocation + compute)
    app: Dict[str, AbinitResult]

    def speedup(self, replays: Dict[str, ReplayResult]) -> float:
        """libc's allocator time over the hugepage library's."""
        return replays["libc"].total_ns / replays["hugepage_lib"].total_ns

    def saving_pct(self) -> float:
        """The library's allocator-time saving, in % of libc's runtime."""
        libc, lib = self.app["libc"], self.app["hugepage_lib"]
        return (libc.alloc_ns - lib.alloc_ns) / libc.total_ns * 100


def run_allocators(sweep: AbinitSweep, harness: Harness) -> AllocatorRuns:
    """ABINIT driver: the replays if asked, then libc vs the library in
    the application run."""
    cold: Dict[str, ReplayResult] = {}
    warm: Dict[str, ReplayResult] = {}
    if sweep.replay:
        trace = abinit_like_trace(iterations=sweep.iterations)
        for factory in (LibcAllocator, HugepageLibraryAllocator, LibhugetlbfsAllocator,
                        LibhugepageallocAllocator):
            pm = PhysicalMemory(2048 * MB, hugepages=720)
            alloc = factory(AddressSpace(pm, HugeTLBfs(pm)))
            cold[alloc.name] = replay(trace, alloc)
            warm[alloc.name] = replay(trace, alloc)
    return AllocatorRuns(sweep, cold, warm, compare_allocators(
        presets.opteron_infinihost_pcie, iterations=sweep.iterations))


def _abinit_cli(r: AllocatorRuns, note: str) -> str:
    table = Table(["allocator", "runtime [ms]", "alloc time [ms]", "alloc share %"],
                  title=f"Abinit-like run: libc vs the hugepage library{note}")
    for name, a in r.app.items():
        table.add_row([name, a.total_ns / 1e6, a.alloc_ns / 1e6, a.alloc_fraction * 100])
    libc, lib = r.app["libc"], r.app["hugepage_lib"]
    return (table.render() + f"\n\nallocator speedup: {libc.alloc_ns / lib.alloc_ns:.1f}x; "
            f"runtime saving from allocator time alone: {r.saving_pct():.1f}%")


def _abinit_paper(r: AllocatorRuns) -> List[str]:
    replays = Table(["allocator", "cold [ms]", "vs libc", "warm [ms]", "vs libc (warm)"],
                    title="ABINIT: allocator time on the Abinit-like trace")
    for name in r.cold:
        replays.add_row([name, r.cold[name].total_ns / 1e6,
                         r.cold["libc"].total_ns / r.cold[name].total_ns,
                         r.warm[name].total_ns / 1e6,
                         r.warm["libc"].total_ns / r.warm[name].total_ns])
    app = Table(["allocator", "runtime [ms]", "alloc share %", "runtime impr. %"],
                title="ABINIT: application context (allocation + compute)")
    for name, a in r.app.items():
        app.add_row([name, a.total_ns / 1e6, a.alloc_fraction * 100,
                     (1 - a.total_ns / r.app["libc"].total_ns) * 100])
    return ["\n" + replays.render(), app.render()]


ABINIT: Figure[AbinitSweep, AllocatorRuns] = Figure(
    name="abinit",
    driver=run_allocators,
    cli=AbinitSweep(12, replay=False),
    paper=AbinitSweep(20, replay=True),
    render_cli=_abinit_cli,
    render_paper=_abinit_paper,
    claims=(
        Claim("ABINIT", ("allocator time vs libc on the Abinit trace",),
              "cold replay: the library's allocator time is 5-25x below libc's "
              "('up to 10 times')", lambda r: 5.0 < r.speedup(r.cold) < 25.0),
        Claim("ABINIT", ("allocator time vs libc on the Abinit trace",),
              "warm replay: more than 8x below libc's", lambda r: r.speedup(r.warm) > 8.0),
        Claim("ABINIT", ("application-runtime improvement from allocator time alone",),
              "the allocator saving is 0.5-6 % of runtime (the paper: 1.5 %)",
              lambda r: 0.5 < r.saving_pct() < 6.0),
        Claim("ABINIT", ("application runtime, allocation + compute",),
              "the library's run is shorter than libc's",
              lambda r: r.app["hugepage_lib"].total_ns < r.app["libc"].total_ns),
    ),
)

#: every figure, by command name
FIGURES: Dict[str, Figure[Any, Any]] = {
    fig.name: fig for fig in (FIG3, FIG4, FIG5, XEON, REGISTRATION, FIG6, TLB, ABINIT)}
