"""Tracked performance harness: fast path vs reference path.

``repro perf`` times every figure driver twice — once with the batched
fast paths of :mod:`repro.fastpath` enabled, once forced onto the
reference per-element loops — and records, per benchmark:

- ``fast_s`` / ``ref_s``: best-of-N wall-clock seconds on each path,
- ``speedup``: ``ref_s / fast_s``,
- ``identical``: whether both paths produced *exactly* the same result
  payload (every reported tick, latency and counter-derived figure).

``identical: false`` anywhere is a hard failure — the fast paths exist
only because they are bit-equivalent (see ``docs/performance.md``).

Results are written to a JSON file (default ``BENCH_PR2.json``), keyed
by mode (``full`` / ``quick``) so a quick CI run compares against the
quick section of the committed baseline.  ``--compare BASELINE`` fails
(exit 1) when the headline ``fig5`` speedup regresses more than
``1 - REGRESSION_TOLERANCE`` relative to the baseline's same-mode entry
— a *ratio* of two timings on the same machine, so the check is
machine-independent.

The two sweep scales are deliberate: the paper-scale figure commands
(``repro fig5``/``fig6 --class W``) are event-bound and gain ~1.3x from
the fast paths; the perf benchmarks below run the same drivers at
production scale (messages to 64 MB, NAS class B) where per-page /
per-entry reference costing dominates and the batched paths pay off
3-4x.  Both scales are reported honestly.

A second harness (``repro perf --scheduler-sweep``) covers the *kernel*
axis: it times the event-bound ``train`` benchmark (and fig5) under
both registered schedulers, requires byte-identical payloads, gates the
heap/calendar timing ratio, and measures the delivery-fold speedup
(fold on vs off) — results land in ``BENCH_PR9.json``.  Only ratios of
same-machine timings are gated, never absolute seconds, so the gate
holds in CI regardless of hardware (see ``docs/performance.md`` for the
honest numbers and why the paper-scale drivers are model-arithmetic-
bound rather than event-bound).
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro import fastpath

KB = 1024
MB = 1024 * 1024

SCHEMA = "repro-perf/1"

#: ``--compare`` fails when fig5's speedup drops below this fraction of
#: the baseline's (0.8 = a >20 % regression fails)
REGRESSION_TOLERANCE = 0.8

SCHED_SCHEMA = "repro-sched/1"

#: ``--scheduler-sweep`` fails when either scheduler is more than this
#: fraction slower than the other.  The recorded calendar/heap ratios in
#: BENCH_PR9.json are 1.186 (full) and 1.158 (quick) on the sparse-queue
#: train (C-implemented heapq beats a pure-Python calendar at ~30 pending
#: events) and 1.067 / 1.025 on fig5 — 0.35 leaves headroom over the
#: honest gap while still failing on any real regression in either
#: scheduler.
SCHED_TOLERANCE = 0.35


# ---------------------------------------------------------------------------
# benchmark payloads
#
# Each benchmark returns a plain tuple of the driver's reported numbers.
# The harness runs it on both paths and compares the tuples with ``==``:
# any tick, latency or counter-derived value that diverges flips
# ``identical`` to false.
# ---------------------------------------------------------------------------

def _bench_fig3(quick: bool):
    """Fig 3 driver: SGE count/size sweep at the verbs level."""
    from repro.workloads.verbs_micro import measure_send

    sizes = [8, 64, 512, 2048] if quick else [1, 8, 32, 64, 128, 256, 512,
                                              1024, 2048]
    counts = [1, 2, 4, 8, 32, 128]
    return tuple(
        measure_send(sges=n, sge_size=s).total_ticks
        for s in sizes for n in counts
    )


def _bench_fig4(quick: bool):
    """Fig 4 driver: in-page offset sweep."""
    from repro.workloads.verbs_micro import measure_send

    offsets = range(0, 129, 32) if quick else range(0, 129, 8)
    sizes = [8, 16, 32, 64]
    return tuple(
        measure_send(sges=1, sge_size=s, offset=off).total_ticks
        for off in offsets for s in sizes
    )


def _bench_fig5(quick: bool):
    """Fig 5 driver (IMB SendRecv) at benchmark scale.

    Same 4 placement curves as ``repro fig5``, but swept to 64 MB
    messages — the regime the registration/ATT fast paths target.
    """
    from repro.systems import presets
    from repro.workloads.imb import SendRecvBenchmark

    bench = SendRecvBenchmark(presets.opteron_infinihost_pcie)
    if quick:
        sizes = [1 * MB, 4 * MB, 16 * MB, 32 * MB]
        curves = [(False, True), (True, True)]
        iterations = 3
    else:
        sizes = [256 * KB, 1 * MB, 4 * MB, 16 * MB, 64 * MB]
        curves = [(False, True), (True, True), (False, False), (True, False)]
        iterations = 5
    payload: List[tuple] = []
    for hugepages, lazy in curves:
        result = bench.run(sizes, hugepages=hugepages, lazy_dereg=lazy,
                           iterations=iterations, warmup=1)
        payload.extend(
            (hugepages, lazy, row.size, row.ticks_per_iter, row.latency_us,
             row.bandwidth_mb_s)
            for row in result.rows
        )
    return tuple(payload)


def _bench_fig6(quick: bool):
    """Fig 6 driver: the NAS hugepage comparison (class B; W when quick)."""
    from repro.systems import presets
    from repro.workloads.nas import KERNELS
    from repro.workloads.nas.common import compare_hugepages

    klass = "W" if quick else "B"
    payload: List[tuple] = []
    for name, prog in KERNELS.items():
        c = compare_hugepages(prog, presets.opteron_infinihost_pcie(),
                              klass=klass, nas_hugepage_pool=720)
        payload.append((
            name,
            c.small.total_ticks, c.huge.total_ticks,
            c.small.comm_ticks, c.huge.comm_ticks,
            c.small.compute_ticks, c.huge.compute_ticks,
            c.small.tlb_misses_4k, c.small.tlb_misses_2m,
            c.huge.tlb_misses_4k, c.huge.tlb_misses_2m,
            c.small.regcache_hits, c.small.regcache_misses,
            c.huge.regcache_hits, c.huge.regcache_misses,
        ))
    return tuple(payload)


def _bench_nas(quick: bool):
    """The NAS suite on 4 KB pages (class B; W when quick).

    The small-page configuration is the page-count-heavy half of Fig 6 —
    the regime where per-page reference loops dominate (the hugepage
    half has ~500x fewer pages and gains almost nothing, which is the
    paper's point).
    """
    from repro.systems import presets
    from repro.workloads.nas import KERNELS
    from repro.workloads.nas.common import run_nas

    klass = "W" if quick else "B"
    payload: List[tuple] = []
    for name, prog in KERNELS.items():
        r = run_nas(prog, presets.opteron_infinihost_pcie(), hugepages=False,
                    klass=klass, nas_hugepage_pool=720)
        payload.append((
            name, r.total_ticks, r.comm_ticks, r.compute_ticks, r.verified,
            r.tlb_misses_4k, r.tlb_misses_2m,
            r.regcache_hits, r.regcache_misses,
        ))
    return tuple(payload)


def _bench_train(quick: bool):
    """Verbs message train (:mod:`repro.workloads.train`).

    The one benchmark that is genuinely event-kernel-bound: a windowed
    back-to-back train where nearly all simulated work is scheduling,
    dispatch, resource grants and completions — the regime the calendar
    scheduler and the folded delivery path target.  The payload carries
    the analytic period too, so any drift between the DES and the closed
    form flips ``identical``.
    """
    from repro.workloads.train import run_train

    count = 600 if quick else 2000
    payload: List[tuple] = []
    for msg_bytes, window in ((1024, 16), (4096, 4)):
        r = run_train(msg_bytes=msg_bytes, count=count, window=window)
        payload.append((
            msg_bytes, window, r.total_ticks, r.analytic_period_ticks,
            r.tx_messages, r.rx_messages,
        ))
    return tuple(payload)


@dataclass
class BenchSpec:
    """One tracked benchmark: a driver and how often to repeat it."""

    name: str
    describe: str
    run: Callable[[bool], tuple]
    #: timed repetitions per path (min is reported); heavy drivers run once
    repeats: int
    quick_repeats: int


BENCHMARKS: List[BenchSpec] = [
    BenchSpec("fig3", "SGE sweep (verbs micro)", _bench_fig3, 3, 3),
    BenchSpec("fig4", "offset sweep (verbs micro)", _bench_fig4, 3, 3),
    BenchSpec("fig5", "IMB SendRecv placement-curve sweep", _bench_fig5, 2, 3),
    BenchSpec("fig6", "NAS hugepage comparison, class B", _bench_fig6, 1, 1),
    BenchSpec("nas", "NAS suite, 4 KB pages, class B", _bench_nas, 1, 1),
    BenchSpec("train", "verbs message train (event-kernel bound)",
              _bench_train, 3, 3),
]


# ---------------------------------------------------------------------------
# the harness
# ---------------------------------------------------------------------------

def _prime() -> None:
    """Pay one-time import/setup costs before anything is timed."""
    from repro.workloads import imb, nas, verbs_micro  # noqa: F401
    from repro.workloads.verbs_micro import measure_send

    measure_send(sges=1, sge_size=64)


def _time_path(spec: BenchSpec, quick: bool, fast: bool):
    """Run *spec* on one path; returns ``(best_seconds, payload)``."""
    repeats = spec.quick_repeats if quick else spec.repeats
    best = float("inf")
    payload = None
    with fastpath.forced(fast):
        for _ in range(repeats):
            start = time.perf_counter()
            payload = spec.run(quick)
            best = min(best, time.perf_counter() - start)
    return best, payload


def run_benchmarks(quick: bool = False,
                   only: Optional[List[str]] = None) -> Dict[str, dict]:
    """Time every benchmark on both paths; returns the results mapping."""
    _prime()
    results: Dict[str, dict] = {}
    for spec in BENCHMARKS:
        if only and spec.name not in only:
            continue
        print(f"  {spec.name}: {spec.describe} ...", file=sys.stderr)
        fast_s, fast_payload = _time_path(spec, quick, fast=True)
        ref_s, ref_payload = _time_path(spec, quick, fast=False)
        identical = fast_payload == ref_payload
        results[spec.name] = {
            "describe": spec.describe,
            "fast_s": round(fast_s, 4),
            "ref_s": round(ref_s, 4),
            "speedup": round(ref_s / fast_s, 3) if fast_s else 0.0,
            "identical": identical,
        }
        print(f"  {spec.name}: fast={fast_s:.3f}s ref={ref_s:.3f}s "
              f"speedup={ref_s / fast_s:.2f}x identical={identical}",
              file=sys.stderr)
    return results


def render_results(mode: str, results: Dict[str, dict]) -> str:
    """A human-readable summary table."""
    from repro.analysis.report import Table

    table = Table(["benchmark", "fast [s]", "ref [s]", "speedup", "identical"],
                  title=f"repro perf ({mode} mode): fast path vs reference")
    for name, r in results.items():
        table.add_row([name, r["fast_s"], r["ref_s"],
                       f"{r['speedup']:.2f}x", str(r["identical"])])
    return table.render()


def write_results(path: str, mode: str, results: Dict[str, dict]) -> None:
    """Merge this run's *mode* section into the JSON file at *path*."""
    doc = {"schema": SCHEMA, "modes": {}}
    if os.path.exists(path):
        try:
            with open(path) as fh:
                existing = json.load(fh)
            if existing.get("schema") == SCHEMA:
                doc = existing
        except (OSError, ValueError):
            pass
    doc.setdefault("modes", {})[mode] = {
        # results-file metadata only; never feeds simulated state
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),  # detlint: ignore[wallclock]
        "python": platform.python_version(),
        "platform": platform.platform(),
        "results": results,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def measure_trace_overhead(quick: bool = True, repeats: int = 3) -> Dict[str, float]:
    """Time the fig5 sweep with tracing disabled vs enabled.

    ``off_s`` is the default mode every figure command runs in: the
    instrumentation sites pay one module-global read plus a None check
    (see ``repro.trace``).  ``on_s`` carries the full span/counter
    sampling cost.  Returns best-of-*repeats* seconds for each plus the
    enabled-mode ``overhead`` fraction (``on_s / off_s - 1``).
    """
    from repro import trace

    spec = next(s for s in BENCHMARKS if s.name == "fig5")

    def best(traced: bool) -> float:
        out = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            if traced:
                with trace.capturing(trace.Tracer()) as tracer:
                    spec.run(quick)
                    tracer.flush()
            else:
                spec.run(quick)
            out = min(out, time.perf_counter() - start)
        return out

    _prime()
    off_s = best(False)
    on_s = best(True)
    return {"off_s": round(off_s, 4), "on_s": round(on_s, 4),
            "overhead": round(on_s / off_s - 1.0, 4) if off_s else 0.0}


def measure_sanitize_overhead(quick: bool = True,
                              repeats: int = 3) -> Dict[str, float]:
    """Time the fig5 sweep with the sanitizer disabled vs enabled.

    ``off_s`` is the default mode: every hook site pays one module-global
    read plus a None check (see :mod:`repro.sanitize` — the same pattern
    as :mod:`repro.trace`).  ``on_s`` carries the full shadow-state
    bookkeeping for every group.  Returns best-of-*repeats* seconds for
    each plus the enabled-mode ``overhead`` fraction (``on_s/off_s - 1``).
    """
    from repro import sanitize

    spec = next(s for s in BENCHMARKS if s.name == "fig5")

    def best(sanitized: bool) -> float:
        out = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            if sanitized:
                with sanitize.capturing(sanitize.Sanitizer()):
                    spec.run(quick)
            else:
                spec.run(quick)
            out = min(out, time.perf_counter() - start)
        return out

    _prime()
    off_s = best(False)
    on_s = best(True)
    return {"off_s": round(off_s, 4), "on_s": round(on_s, 4),
            "overhead": round(on_s / off_s - 1.0, 4) if off_s else 0.0}


def measure_scheduler_sweep(quick: bool = True,
                            names: tuple = ("train", "fig5")) -> Dict[str, dict]:
    """Time the named benchmarks under every registered scheduler.

    Returns per benchmark: best-of-N seconds under ``heap`` and
    ``calendar``, the slow/fast ``ratio`` between them, and whether the
    payloads were byte-identical (they must be — the schedulers are
    pinned to dispatch in the same order).
    """
    from repro.engine import default_scheduler, set_default_scheduler

    _prime()
    out: Dict[str, dict] = {}
    prior = default_scheduler()
    try:
        for spec in BENCHMARKS:
            if spec.name not in names:
                continue
            repeats = spec.quick_repeats if quick else spec.repeats
            times: Dict[str, float] = {}
            payloads: Dict[str, tuple] = {}
            for kind in ("heap", "calendar"):
                set_default_scheduler(kind)
                best = float("inf")
                for _ in range(repeats):
                    start = time.perf_counter()
                    payloads[kind] = spec.run(quick)
                    best = min(best, time.perf_counter() - start)
                times[kind] = best
            slow, fast = max(times.values()), min(times.values())
            out[spec.name] = {
                "heap_s": round(times["heap"], 4),
                "calendar_s": round(times["calendar"], 4),
                "ratio": round(slow / fast, 3) if fast else 0.0,
                "identical": payloads["heap"] == payloads["calendar"],
            }
            print(f"  {spec.name}: heap={times['heap']:.3f}s "
                  f"calendar={times['calendar']:.3f}s "
                  f"ratio={slow / fast:.2f}x "
                  f"identical={out[spec.name]['identical']}",
                  file=sys.stderr)
    finally:
        set_default_scheduler(prior)
    return out


def measure_fold_speedup(quick: bool = True, repeats: int = 3) -> Dict[str, float]:
    """Time the train with the delivery folds on vs off.

    ``fold_s`` is the default mode (callback chains); ``nofold_s`` pins
    the per-message generator machinery the folds replace
    (``REPRO_NO_FOLD``).  Both must produce identical ticks; the speedup
    is reported honestly — the fold removes events and generator
    resumes, not model arithmetic, so expect ~1.1-1.3x on the train and
    ~1.0x on the figure drivers (see ``docs/performance.md``).
    """
    spec = next(s for s in BENCHMARKS if s.name == "train")
    _prime()
    times: Dict[bool, float] = {}
    payloads: Dict[bool, tuple] = {}
    for folded in (True, False):
        with fastpath.fold_forced(folded):
            best = float("inf")
            for _ in range(repeats):
                start = time.perf_counter()
                payloads[folded] = spec.run(quick)
                best = min(best, time.perf_counter() - start)
            times[folded] = best
    return {
        "fold_s": round(times[True], 4),
        "nofold_s": round(times[False], 4),
        "speedup": round(times[False] / times[True], 3) if times[True] else 0.0,
        "identical": payloads[True] == payloads[False],
    }


def write_sched_results(path: str, mode: str, sweep: Dict[str, dict],
                        fold: Dict[str, float],
                        tolerance: float = SCHED_TOLERANCE) -> None:
    """Merge this run's *mode* section into the scheduler results file."""
    doc = {"schema": SCHED_SCHEMA, "modes": {}}
    if os.path.exists(path):
        try:
            with open(path) as fh:
                existing = json.load(fh)
            if existing.get("schema") == SCHED_SCHEMA:
                doc = existing
        except (OSError, ValueError):
            pass
    doc.setdefault("modes", {})[mode] = {
        # results-file metadata only; never feeds simulated state
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),  # detlint: ignore[wallclock]
        "python": platform.python_version(),
        "platform": platform.platform(),
        "tolerance": tolerance,
        "sweep": sweep,
        "fold": fold,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_sched_gate(quick: bool = False, out: str = "BENCH_PR9.json",
                   tolerance: float = SCHED_TOLERANCE) -> List[str]:
    """The ``--scheduler-sweep`` half of ``repro perf``.

    Runs the sweep and the fold measurement, writes *out*, and returns
    gate failures: payload divergence anywhere (hard identity), or a
    heap/calendar timing gap beyond *tolerance* — a same-machine ratio,
    so the gate is hardware-independent.  The fold *speedup* is recorded
    but not gated (it is honest measurement, not a promise).
    """
    mode = "quick" if quick else "full"
    print(f"  scheduler sweep ({mode} mode) ...", file=sys.stderr)
    sweep = measure_scheduler_sweep(quick=quick)
    fold = measure_fold_speedup(quick=quick)
    print(f"  train fold: fold={fold['fold_s']:.3f}s "
          f"nofold={fold['nofold_s']:.3f}s speedup={fold['speedup']:.2f}x "
          f"identical={fold['identical']}", file=sys.stderr)
    failures: List[str] = []
    for name, r in sweep.items():
        if not r["identical"]:
            failures.append(f"{name}: heap and calendar payloads diverged")
        if r["ratio"] > 1.0 + tolerance:
            failures.append(
                f"{name}: scheduler timing gap {r['ratio']:.2f}x exceeds "
                f"{(1 + tolerance):.2f}x (heap {r['heap_s']:.3f}s vs "
                f"calendar {r['calendar_s']:.3f}s)"
            )
    if not fold["identical"]:
        failures.append("train: folded and process-machinery ticks diverged")
    if out:
        write_sched_results(out, mode, sweep, fold, tolerance)
        print(f"scheduler results written to {out} (mode: {mode})")
    return failures


def compare_results(baseline_path: str, mode: str,
                    results: Dict[str, dict],
                    max_slowdown: Optional[float] = None) -> List[str]:
    """Regression check against a committed baseline; returns failures.

    By default only speedup *ratios* are compared (same-machine fast vs
    ref), never absolute seconds, so the check holds across hardware.
    ``max_slowdown`` additionally bounds fig5's absolute ``fast_s``
    against the baseline's (e.g. 0.05 = fail past a 5 % slowdown) —
    only meaningful when baseline and current run share a machine
    class, which is why it is opt-in.
    """
    failures: List[str] = []
    try:
        with open(baseline_path) as fh:
            baseline = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"cannot read baseline {baseline_path}: {exc}"]
    section = (baseline.get("modes") or {}).get(mode)
    if section is None:
        return [f"baseline {baseline_path} has no '{mode}' section"]
    base = section.get("results", {})
    for name in ("fig5",):
        cur, ref = results.get(name), base.get(name)
        if cur is None or ref is None:
            continue
        floor = REGRESSION_TOLERANCE * ref["speedup"]
        if cur["speedup"] < floor:
            failures.append(
                f"{name}: speedup {cur['speedup']:.2f}x regressed >"
                f"{(1 - REGRESSION_TOLERANCE) * 100:.0f}% vs baseline "
                f"{ref['speedup']:.2f}x (floor {floor:.2f}x)"
            )
        if max_slowdown is not None:
            ceiling = (1.0 + max_slowdown) * ref["fast_s"]
            if cur["fast_s"] > ceiling:
                failures.append(
                    f"{name}: fast path {cur['fast_s']:.3f}s exceeds "
                    f"baseline {ref['fast_s']:.3f}s by more than "
                    f"{max_slowdown * 100:.0f}% (ceiling {ceiling:.3f}s)"
                )
    return failures


def run_perf(quick: bool = False, out: str = "BENCH_PR2.json",
             compare: Optional[str] = None,
             only: Optional[List[str]] = None,
             max_slowdown: Optional[float] = None,
             trace_overhead: bool = False,
             sanitize_overhead: bool = False,
             scheduler_sweep: bool = False,
             sched_out: str = "BENCH_PR9.json") -> int:
    """The ``repro perf`` entry point; returns a process exit code."""
    mode = "quick" if quick else "full"
    if scheduler_sweep:
        failures = run_sched_gate(quick=quick, out=sched_out)
        if failures:
            for failure in failures:
                print(f"FAIL: {failure}", file=sys.stderr)
            return 1
        return 0
    if trace_overhead:
        oh = measure_trace_overhead(quick=quick)
        print(f"fig5 trace overhead: off={oh['off_s']:.3f}s "
              f"on={oh['on_s']:.3f}s (+{oh['overhead'] * 100:.1f}% when "
              f"tracing is enabled; disabled mode pays only the None check)")
    if sanitize_overhead:
        oh = measure_sanitize_overhead(quick=quick)
        print(f"fig5 sanitize overhead: off={oh['off_s']:.3f}s "
              f"on={oh['on_s']:.3f}s (+{oh['overhead'] * 100:.1f}% when "
              f"the sanitizer is enabled; disabled mode pays only the "
              f"None check)")
    results = run_benchmarks(quick=quick, only=only)
    print(render_results(mode, results))
    failures = [f"{name}: fast and reference paths diverged"
                for name, r in results.items() if not r["identical"]]
    if compare:
        failures += compare_results(compare, mode, results,
                                    max_slowdown=max_slowdown)
    if out:
        write_results(out, mode, results)
        print(f"\nresults written to {out} (mode: {mode})")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0
