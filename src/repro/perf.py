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

Results are printed; ``--out FILE`` also merges them into a JSON file,
keyed by mode (``full`` / ``quick``), so a quick CI run compares
against the quick section of the committed ``BENCH_PR2.json``.  By
default nothing is written, and the CLI refuses an ``--out`` that
names the ``--compare`` file.  ``--compare BASELINE`` fails
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
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, ContextManager, Dict, Iterator, List, Optional

from repro import fastpath
from repro.figures import (FIG3_SIZES, FIG4_SIZES, FIG5_CURVES, FIGURES, KB, MB, OPTERON,
                           Harness, IMBSweep, NASResult, NASSweep, VerbsSweep)

SCHEMA = "repro-perf/1"

#: ``--compare`` fails when fig5's speedup drops below this fraction of
#: the baseline's (0.8 = a >20 % regression fails)
REGRESSION_TOLERANCE = 0.8


# ---------------------------------------------------------------------------
# benchmark payloads
#
# Each benchmark returns a plain tuple of the driver's reported numbers.
# The harness runs it on both paths and compares the tuples with ``==``:
# any tick, latency or counter-derived value that diverges flips
# ``identical`` to false.
# ---------------------------------------------------------------------------

def _figure(name: str, payload: Callable[[Any], tuple]) -> Callable[[Any], tuple]:
    """*payload* of the :mod:`repro.figures` entry *name*'s result on a sweep."""
    def run(sweep: Any) -> tuple:
        return payload(FIGURES[name].driver(sweep, Harness()))
    return run


def _nas_payload(r: NASResult) -> tuple:
    return tuple(
        (kernel, c.small.total_ticks, c.huge.total_ticks, c.small.comm_ticks,
         c.huge.comm_ticks, c.small.compute_ticks, c.huge.compute_ticks,
         c.small.tlb_misses_4k, c.small.tlb_misses_2m, c.huge.tlb_misses_4k,
         c.huge.tlb_misses_2m, c.small.regcache_hits, c.small.regcache_misses,
         c.huge.regcache_hits, c.huge.regcache_misses)
        for on in r.comparisons.values() for kernel, c in on.items())


def _bench_nas(klass: str) -> tuple:
    """The NAS suite on 4 KB pages at *klass*.

    The small-page configuration is the page-count-heavy half of Fig 6 —
    the regime where per-page reference loops dominate (the hugepage
    half has ~500x fewer pages and gains almost nothing, which is the
    paper's point).
    """
    from repro.systems import presets
    from repro.workloads.nas import KERNELS
    from repro.workloads.nas.common import run_nas

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


def _bench_train(count: int) -> tuple:
    """Verbs message train (:mod:`repro.workloads.train`) of *count*
    messages.

    The one benchmark that is genuinely event-kernel-bound: a windowed
    back-to-back train where nearly all simulated work is scheduling,
    dispatch, resource grants and completions — the regime the adapter's
    callback chains target.  The payload carries
    the analytic period too, so any drift between the DES and the closed
    form flips ``identical``.
    """
    from repro.workloads.train import run_train

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
    """One tracked benchmark: its payload on a sweep, the quick and the
    full sweep, and how often to repeat it."""

    name: str
    describe: str
    #: a sweep -> the plain tuple of every number its run reports
    payload: Callable[[Any], tuple]
    quick: Any
    full: Any
    #: timed repetitions per path (min is reported); heavy drivers run once
    repeats: int
    quick_repeats: int

    def run(self, quick: bool) -> tuple:
        return self.payload(self.quick if quick else self.full)


BENCHMARKS: List[BenchSpec] = [
    BenchSpec("fig3", "SGE sweep (verbs micro)",
              _figure("fig3", lambda r: tuple(
                  r.total(n, s) for s in r.sweep.sizes for n in r.sweep.counts)),
              VerbsSweep((8, 64, 512, 2048), (1, 2, 4, 8, 32, 128)),
              VerbsSweep(FIG3_SIZES, (1, 2, 4, 8, 32, 128)), 3, 3),
    BenchSpec("fig4", "offset sweep (verbs micro)",
              _figure("fig4", lambda r: tuple(
                  r.total(1, s, off) for off in r.sweep.offsets for s in r.sweep.sizes)),
              VerbsSweep(FIG4_SIZES, offsets=tuple(range(0, 129, 32))),
              VerbsSweep(FIG4_SIZES, offsets=tuple(range(0, 129, 8))), 3, 3),
    BenchSpec("fig5", "IMB SendRecv placement-curve sweep",
              _figure("fig5", lambda r: tuple(
                  (hp, lazy, row.size, row.ticks_per_iter, row.latency_us, row.bandwidth_mb_s)
                  for _, hp, lazy in r.sweep.curves for row in r.curves[(hp, lazy)].rows)),
              IMBSweep((1 * MB, 4 * MB, 16 * MB, 32 * MB), FIG5_CURVES[:2], iterations=3),
              IMBSweep((256 * KB, 1 * MB, 4 * MB, 16 * MB, 64 * MB), FIG5_CURVES,
                       iterations=5), 2, 3),
    BenchSpec("fig6", "NAS hugepage comparison, class B", _figure("fig6", _nas_payload),
              NASSweep(OPTERON, "W"), NASSweep(OPTERON, "B"), 1, 1),
    BenchSpec("nas", "NAS suite, 4 KB pages, class B", _bench_nas, "W", "B", 1, 1),
    BenchSpec("train", "verbs message train (event-kernel bound)",
              _bench_train, 600, 2000, 3, 3),
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


@contextmanager
def _tracing() -> Iterator[None]:
    """Trace the block, flushing the tracer's last spans inside it."""
    from repro import trace

    with trace.capturing(trace.Tracer()) as tracer:
        yield
        tracer.flush()


def _sanitizing() -> ContextManager:
    """Run the block under a sanitizer with every rule group on."""
    from repro import sanitize

    return sanitize.capturing(sanitize.Sanitizer())


def measure_overhead(capture: Callable[[], ContextManager],
                     quick: bool = True, repeats: int = 3) -> Dict[str, float]:
    """Time the fig5 sweep plain vs inside ``with capture():``.

    ``off_s`` is the default mode every figure command runs in: each
    instrumentation site pays one module-global read plus a None check
    (the pattern :mod:`repro.trace` and :mod:`repro.sanitize` share).
    ``on_s`` carries the full cost of what *capture* installs
    (:func:`_tracing`, :func:`_sanitizing`).  Returns best-of-*repeats*
    seconds for each plus the enabled-mode ``overhead`` fraction
    (``on_s / off_s - 1``).
    """
    spec = next(s for s in BENCHMARKS if s.name == "fig5")

    def best(captured: bool) -> float:
        out = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            if captured:
                with capture():
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


def run_perf(quick: bool = False, out: str = "",
             compare: Optional[str] = None,
             only: Optional[List[str]] = None,
             max_slowdown: Optional[float] = None,
             trace_overhead: bool = False,
             sanitize_overhead: bool = False) -> int:
    """The ``repro perf`` entry point; returns a process exit code."""
    mode = "quick" if quick else "full"
    if trace_overhead:
        oh = measure_overhead(_tracing, quick=quick)
        print(f"fig5 trace overhead: off={oh['off_s']:.3f}s "
              f"on={oh['on_s']:.3f}s (+{oh['overhead'] * 100:.1f}% when "
              f"tracing is enabled; disabled mode pays only the None check)")
    if sanitize_overhead:
        oh = measure_overhead(_sanitizing, quick=quick)
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
