"""Benchmark driver: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload imb-rndv --seed 1 --seconds 40 --trace 0

Runs in a single process and thread: one client issues the workload's
ops back to back (a closed loop; this is a batch simulator, not a
server).  Every timing is host time; simulated ticks are outputs that
the oracle checks for identity and never metrics.

``--trace 0`` prints the end-to-end metrics of a timed run.  ``--trace 1``
takes the first ``TRACE_SHARE`` of the same op list, runs it untraced,
then again under ``cProfile``, and prints the per-layer metrics (see
``layers.py``).  The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.

See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REPRO_DIR = os.path.join(SRC, "repro")

#: fresh interpreters started per run to time set-up; setup_s is their median
SETUP_PROBES = 5
#: share of the op list a traced run covers: the profiler slows ops about
#: 2-3x, so a traced run of the whole list would take several run lengths
TRACE_SHARE = 0.25
#: timeout for one set-up probe (it includes one warm-up op)
PROBE_TIMEOUT_S = 120


def import_program() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, SRC)
    import repro

    found = os.path.dirname(os.path.abspath(repro.__file__))
    if found != os.path.abspath(REPRO_DIR):
        raise ImportError(f"repro imported from {found}, not from {REPRO_DIR}")


def digest(payloads) -> str:
    """sha256 over the payload list; equal seeds give equal digests."""
    blob = json.dumps(payloads, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def run_ops(workload, ops, sink=None, profiler=None):
    """Issue *ops* back to back; return (payloads, op times, failures).

    A raised exception fails the op; its payload is None.  With a
    *profiler*, only the op calls themselves are profiled.
    """
    import ops as ops_mod

    payloads, times, failed = [], [], []
    for i, op in enumerate(ops):
        if profiler is not None:
            profiler.enable()
        t0 = time.perf_counter()
        try:
            payload = ops_mod.run_op(workload, op, sink)
        except Exception as exc:  # a failing op is counted, not fatal
            payload = None
            failed.append(i)
            print(f"op {i} ({op!r}) failed: {exc!r}", file=sys.stderr)
        times.append(time.perf_counter() - t0)
        if profiler is not None:
            profiler.disable()
        payloads.append(payload)
    return payloads, times, failed


def time_setup(workload: str) -> float:
    """Median time from spawning a fresh interpreter until it has imported
    the program and run the warm-up op.

    The probe reports when it got there on the system-wide monotonic
    clock, so its exit is not counted and the result does not depend on
    how often ``subprocess`` polls for the exit.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--setup-probe"]
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True,
                             timeout=PROBE_TIMEOUT_S).stdout
        samples.append(float(out.split()[-1]) - t0)
    return statistics.median(samples)


def main(argv=None) -> int:
    import ops as ops_mod

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=ops_mod.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        import_program()
    except ImportError as exc:
        print(f"error: cannot import the simulator: {exc}", file=sys.stderr)
        return 2
    workload = args.workload
    # set-up: imports are done; the warm-up op fills lazy caches
    ops_mod.run_op(workload, ops_mod.WARMUP[workload])
    if args.setup_probe:
        print(time.clock_gettime(time.CLOCK_MONOTONIC))
        return 0
    op_list = ops_mod.make_ops(workload, args.seed, ops_mod.n_ops(workload, args.seconds))
    if args.trace:
        op_list = op_list[:max(1, round(len(op_list) * TRACE_SHARE))]
    print(f"workload {workload} seed {args.seed}: {len(op_list)} ops, "
          f"closed loop, 1 client", flush=True)

    t0 = time.perf_counter()
    payloads, times, failed = run_ops(workload, op_list)
    wall_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    correct = True
    if args.trace:
        metrics, correct, traced_failed = traced_run(workload, op_list, payloads, wall_s)
        failed = sorted(set(failed) | set(traced_failed))

    mismatched = ops_mod.oracle_check(workload, op_list, payloads, args.seed)
    for i in mismatched:
        print(f"op {i} ({op_list[i]!r}): payload differs on the reference path",
              file=sys.stderr)
    failed = sorted(set(failed) | set(mismatched))
    print(f"oracle: {len(ops_mod.oracle_plan(workload, op_list, args.seed))} sampled "
          f"op(s) re-run on the reference path, {len(mismatched)} mismatch(es)")
    print(f"payload_sha256 {digest(payloads)}")

    if not args.trace:
        p90 = statistics.quantiles(times, n=10)[-1] if len(times) > 1 else times[0]
        metrics = {
            "wall_s": (wall_s, "s"),
            "op_ms.p50": (statistics.median(times) * 1e3, "ms"),
            "op_ms.p90": (p90 * 1e3, "ms"),
            "setup_s": (time_setup(workload), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    attempted = len(op_list)
    print(f"fail_ratio = {len(failed) / attempted!r} ({len(failed)}/{attempted})")
    for name, (value, unit) in metrics.items():
        note = f" (n={len(times)})" if name.startswith("op_ms.") else ""
        print(f"metric {name} = {value!r} {unit}{note}")
    print(json.dumps({
        "correct": correct and not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def traced_run(workload, op_list, untraced_payloads, untraced_wall_s):
    """Re-run *op_list* under cProfile; return (metrics, sum check ok,
    indices of ops whose traced payload differs from the untraced one)."""
    import layers

    codes = layers.resolve_entry_points()
    profiler = cProfile.Profile()
    clusters = []
    counters = {}
    events = 0
    times, failed = [], []
    for i, op in enumerate(op_list):
        p, t, f = run_ops(workload, [op], sink=clusters, profiler=profiler)
        times += t
        if f or p[0] != untraced_payloads[i]:
            failed.append(i)
        for cluster in clusters:
            for key, value in cluster.aggregate_counters().items():
                counters[key] = counters.get(key, 0) + value
            # dispatched events; the kernel keeps this count private
            events += cluster.kernel._events
        clusters.clear()
    traced_wall_s = sum(times)
    split = layers.LayerSplit(profiler.getstats(), REPRO_DIR, codes)
    for line in split.table():
        print(line)
    gap = abs(split.total_s - traced_wall_s) / traced_wall_s
    ok = gap <= layers.SUM_TOLERANCE
    print(f"layer self times sum to {split.total_s:.3f} s of {traced_wall_s:.3f} s "
          f"traced wall ({gap:.1%} apart; tolerance {layers.SUM_TOLERANCE:.0%}): "
          f"{'ok' if ok else 'FAILED'}")
    metrics = layers.layer_metrics(split, counters, events, untraced_wall_s, traced_wall_s)
    return metrics, ok, failed


if __name__ == "__main__":
    sys.exit(main())
