"""Command-line interface: regenerate any of the paper's experiments.

::

    python -m repro list                 # what can be regenerated
    python -m repro fig3                 # Fig 3 (SGE sweep)
    python -m repro fig4                 # Fig 4 (offset sweep)
    python -m repro fig5                 # Fig 5 (IMB SendRecv, Opteron)
    python -m repro xeon                 # the §5.1 Xeon driver experiment
    python -m repro registration         # the 1 % registration table
    python -m repro fig6 [--class B]     # NAS improvements (default W)
    python -m repro tlb  [--class B]     # §5.2 TLB miss counts
    python -m repro abinit               # the allocator comparison
    python -m repro breakdown [--mb 4]   # per-component message costs
    python -m repro faults               # fault-injection demo + report
    python -m repro perf [--quick]       # fast-vs-reference perf harness
    python -m repro trace fig5 --trace-out t.json   # traced figure run

Each command prints the same rows/series the paper reports.  ``fig3``
to ``fig6``, ``xeon``, ``registration``, ``tlb`` and ``abinit`` run the
CLI sweep of their :mod:`repro.figures` entry, which also holds the
paper-scale sweep and claims that ``benchmarks/`` checks; ``tlb`` prints
other columns of the ``fig6`` driver's result.  The NAS commands accept ``--class W|B|C`` (the
benchmark suite uses C).

Every command accepts ``--no-fastpath`` (before or after the command
name) to force the reference per-element costing loops instead of the
batched fast paths — results are identical either way, only slower (see
``docs/performance.md``).

``fig5``, ``pingpong`` and ``faults`` accept ``--fault-plan
key=value,...`` and ``--fault-seed N`` to run under injected faults
(see :mod:`repro.faults` and ``docs/fault_model.md``).  The plan may
also be a path to a JSON file of the same knobs.

``fig5``, ``fig6``, ``tlb`` and ``faults`` additionally accept
``--checkpoint-every N`` / ``--checkpoint-dir DIR`` (snapshot the run
ledger every N simulated ticks), ``--audit`` (sweep each unit's
finished cluster with :func:`repro.sanitize.check_snapshot`) and ``--hang-timeout SECONDS`` (a
wall-clock watchdog that dumps a post-mortem and exits non-zero if the
event loop stalls).  ``repro resume <snapshot>`` re-runs a checkpointed
command, replaying completed units from the snapshot — see
``docs/checkpointing.md``.

``fig5``, ``fig6``, ``tlb`` and ``faults`` accept ``--trace`` (print the
per-phase counter-delta table after the run) and ``--trace-out FILE``
(write a Chrome/Perfetto ``trace_event`` JSON timeline); ``repro trace
<fig5|fig6|nas|faults>`` is the shorthand that runs a driver with
tracing on — see ``docs/observability.md``.

The same commands accept ``--sanitize[=heap,mr,tlb,counter]`` (default
``all``) to run under the shadow-state sanitizer of
:mod:`repro.sanitize`; ``repro sanitize <fig5|fig6|nas|faults>`` is the
shorthand.  A violation aborts the run with exit code 3 and a one-line
report naming the rule and the faulting address/key — see
``docs/static_analysis.md``.

Exit codes are a contract across every subcommand: 0 = clean run, 1 =
the run finished with a failed outcome (a faulted run aborted or
corrupted its payload, or ``lint`` found something), 2 = bad spec /
failed preflight (bad flags, unreadable or corrupt snapshot,
unwritable output path), 3 = sanitizer violation.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
from pathlib import Path
from typing import List, Optional

KB = 1024
MB = 1024 * 1024

#: the fault plan ``faults`` runs under when no ``--fault-plan`` is given
DEFAULT_FAULT_PLAN = "link_loss=0.01"


def _ensure_dir(path: str, flag: str) -> None:
    """Create *path* (with parents) or exit with code 2 and a one-line
    error — never a traceback — when it cannot be created."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        print(f"error: {flag}: cannot create directory {path!r}: {exc}",
              file=sys.stderr)
        raise SystemExit(2)


def _ensure_parent_dir(path: str, flag: str) -> None:
    """Create *path*'s parent directory and verify *path* is writable,
    exiting with code 2 on failure (checked before the run starts, so a
    bad output path cannot waste a long simulation)."""
    parent = os.path.dirname(os.path.abspath(path))
    try:
        os.makedirs(parent, exist_ok=True)
        with open(path, "a"):
            pass
    except OSError as exc:
        print(f"error: {flag}: cannot write {path!r}: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _parse_fault_plan(args):
    """The FaultPlan from ``--fault-plan``/``--fault-seed``, or None.

    The spec is either the inline ``key=value,...`` form or a path to a
    JSON file holding the same knobs as an object.
    """
    from repro.faults import FaultPlan

    spec = getattr(args, "fault_plan", None)
    if spec is None:
        return None
    seed = getattr(args, "fault_seed", 0)
    try:
        if spec.endswith(".json") or os.path.sep in spec or os.path.isfile(spec):
            return FaultPlan.from_file(spec, seed=seed)
        return FaultPlan.from_spec(spec, seed=seed)
    except ValueError as exc:
        print(f"error: --fault-plan: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _check_harness_flags(args) -> None:
    """Exit with code 2 and a one-line error on a ``--hang-timeout`` or
    ``--checkpoint-every`` value that would crash the run or silently
    switch the feature off."""
    # NaN fails every comparison, so it would start a watchdog that
    # never fires; 0 would start none at all
    timeout = getattr(args, "hang_timeout", None)
    if timeout is not None and not 0 < timeout < math.inf:
        print("error: --hang-timeout: must be a finite number of "
              f"seconds > 0, got {timeout}", file=sys.stderr)
        raise SystemExit(2)
    every = getattr(args, "checkpoint_every", None)
    if every is not None and every < 0:
        print("error: --checkpoint-every: must be a number of ticks >= 0, "
              f"got {every}", file=sys.stderr)
        raise SystemExit(2)


@contextlib.contextmanager
def _harness(args):
    """Per-run checkpoint ledger plus the optional hang watchdog.

    Yields a :class:`repro.checkpoint.RunCheckpointer` (a passthrough
    when no checkpoint flags were given).
    """
    from repro.checkpoint import HangWatchdog, RunCheckpointer

    ckpt = RunCheckpointer(
        command=args.command,
        argv=getattr(args, "_argv", []),
        directory=getattr(args, "checkpoint_dir", None),
        every_ticks=getattr(args, "checkpoint_every", None),
        audit=getattr(args, "audit", False),
        preloaded_units=getattr(args, "_resume_units", None),
    )
    watchdog = None
    timeout = getattr(args, "hang_timeout", None)
    if timeout is not None:
        watchdog = HangWatchdog(
            timeout,
            snapshot_dir=getattr(args, "checkpoint_dir", None) or "checkpoints",
        )
        watchdog.start()
    try:
        yield ckpt
    finally:
        if watchdog is not None:
            watchdog.stop()


def _cmd_figure(args) -> None:
    """Every :mod:`repro.figures` entry: run its CLI sweep (the NAS ones
    at ``--class``) and print its table."""
    from dataclasses import replace

    from repro.figures import FIGURES, Harness, NASSweep

    fig = FIGURES[args.command]
    sweep = fig.cli
    if isinstance(sweep, NASSweep):
        sweep = replace(sweep, klass=args.klass)
    plan = _parse_fault_plan(args)
    with _harness(args) as ckpt:
        result = fig.driver(sweep, Harness(
            run_unit=lambda name, unit: ckpt.run_unit(
                f"{args.command}:{name}", unit),
            fault_plan=plan,
            progress=lambda line: print(line, file=sys.stderr)))
    note = f" under faults: {args.fault_plan}" if plan is not None else ""
    print(fig.render_cli(result, note))


def _cmd_pingpong(args) -> None:
    from repro.analysis.report import Table
    from repro.systems import presets
    from repro.workloads.imb import PingPongBenchmark

    sizes = [64, 1 * KB, 8 * KB, 64 * KB, 1 * MB]
    bench = PingPongBenchmark(presets.opteron_infinihost_pcie)
    plan = _parse_fault_plan(args)
    small = bench.run(sizes, hugepages=False, fault_plan=plan)
    huge = bench.run(sizes, hugepages=True, fault_plan=plan)
    table = Table(
        ["size [B]", "4K pages [us]", "2M pages [us]"],
        title="IMB PingPong half-RTT latency (Opteron)",
    )
    for i, size in enumerate(sizes):
        table.add_row([size, small.rows[i].latency_us, huge.rows[i].latency_us])
    print(table.render())


def _cmd_breakdown(args) -> None:
    from repro.analysis.breakdown import breakdown_rdma_message
    from repro.analysis.report import Table
    from repro.mem.physical import PAGE_2M, PAGE_4K
    from repro.systems import presets

    size = int(args.mb * MB)
    spec = presets.opteron_infinihost_pcie()
    table = Table(["config", "reg [us]", "gather [us]", "wire [us]",
                   "scatter [us]", "pipeline [us]"],
                  title=f"{args.mb} MB message breakdown (Opteron)")
    for label, ps, cached in (("4K cold", PAGE_4K, False),
                              ("2M cold", PAGE_2M, False),
                              ("4K cached", PAGE_4K, True),
                              ("2M cached", PAGE_2M, True)):
        b = breakdown_rdma_message(spec, size, ps, registration_cached=cached)
        table.add_row([label, b.registration_ns / 1000, b.gather_ns / 1000,
                       b.wire_ns / 1000, b.scatter_ns / 1000,
                       b.critical_path_ns / 1000])
    print(table.render())


def _cmd_faults(args) -> None:
    """Demo: a rendezvous workload over a lossy link, with and without
    faults, plus the degradation report (the ISSUE's acceptance demo)."""
    from repro.analysis.report import degradation_report
    from repro.core.placement import BufferPlacer, PlacementPolicy
    from repro.faults import MPITransportError, PermanentRegistrationError
    from repro.mpi.api import MPIConfig, MPIWorld
    from repro.systems import presets
    from repro.systems.machine import Cluster

    n_msgs, size = 8, 64 * KB
    expected = [("msg", i) for i in range(n_msgs)]

    def program(comm):
        placer = BufferPlacer(comm.proc)
        buf = placer.place(size, PlacementPolicy.SMALL_PAGES, offset=0)
        if comm.rank == 0:
            for i in range(n_msgs):
                yield from comm.send(1, 10 + i, size, addr=buf.addr,
                                     payload=("msg", i))
            return None
        got = []
        for i in range(n_msgs):
            payload, *_ = yield from comm.recv(0, 10 + i, addr=buf.addr)
            got.append(payload)
        return got

    def run(plan):
        cluster = Cluster(presets.opteron_infinihost_pcie(), n_nodes=2,
                          fault_plan=plan)
        world = MPIWorld(cluster, ppn=1, config=MPIConfig())
        results = world.run(program)
        # app_ticks, not kernel.now: trailing watchdog timers keep the
        # kernel busy after the ranks have finished
        return cluster, results, max(r.app_ticks for r in results)

    plan = _parse_fault_plan(args)
    # resumed runs replay from the ledger without a cluster, so the
    # clock comes from the spec, not a live run
    from repro.engine.clock import TickClock

    clock = TickClock(presets.opteron_infinihost_pcie().ticks_per_us)
    with _harness(args) as ckpt:
        def baseline_unit():
            cluster, _results, ticks = run(None)
            return {"ticks": ticks}, ticks, cluster

        base_ticks = ckpt.run_unit("faults:baseline", baseline_unit)["ticks"]
        print(f"workload: {n_msgs} x {size // KB} KB rendezvous transfers, "
              f"rank 0 -> rank 1")
        print(f"fault plan: {args.fault_plan} (seed {args.fault_seed})")
        print(f"fault-free time: {clock.ticks_to_us(base_ticks):.1f} us")

        def faulted_unit():
            cluster, results, ticks = run(plan)
            return {"ticks": ticks, "got": results[1].value,
                    "counters": cluster.aggregate_counters()}, ticks, cluster

        try:
            faulted = ckpt.run_unit("faults:faulted", faulted_unit)
        except (MPITransportError, PermanentRegistrationError) as exc:
            # the plan's retry budget was exhausted, or a registration
            # failed for good: a legal, clean outcome
            print(f"with faults:     ABORTED ({exc})")
            raise SystemExit(1)
    ok = faulted["got"] == expected
    ticks = faulted["ticks"]
    print(f"with faults:     {clock.ticks_to_us(ticks):.1f} us "
          f"({ticks / base_ticks:.2f}x)")
    print("payload integrity: "
          + ("OK, every message correct" if ok else "FAILED"))
    print()
    print(degradation_report(faulted["counters"], clock=clock))
    if not ok:
        raise SystemExit(1)


def _cmd_perf(args) -> None:
    from repro.perf import run_perf

    if (args.out and args.compare
            and os.path.realpath(args.out) == os.path.realpath(args.compare)):
        # the merge would rewrite the baseline the run is judged against
        print(f"error: --out: {args.out!r} is the --compare baseline",
              file=sys.stderr)
        raise SystemExit(2)
    code = run_perf(quick=args.quick, out=args.out, compare=args.compare,
                    only=args.only, max_slowdown=args.max_slowdown,
                    trace_overhead=args.trace_overhead,
                    sanitize_overhead=args.sanitize_overhead)
    if code:
        raise SystemExit(code)


def _resume_error(message: str) -> "SystemExit":
    """A friendly exit-2 resume error (bad/corrupt snapshot = bad spec)."""
    print(f"error: resume: {message}", file=sys.stderr)
    return SystemExit(2)


def _cmd_resume(args) -> None:
    """Resume a checkpointed run: re-parse the snapshot's argv and
    dispatch its command with the unit ledger preloaded — completed
    units replay from the snapshot instead of re-simulating.

    Every snapshot problem — missing file, truncated or corrupt body,
    unpicklable payload, a ledger missing its fields — is reported as a
    one-line exit-2 error, never a traceback."""
    from repro.checkpoint import CheckpointError, read_snapshot

    try:
        _manifest, payload = read_snapshot(args.snapshot)
    except CheckpointError as exc:
        raise _resume_error(str(exc))
    if not isinstance(payload, dict) or payload.get("kind") != "run-ledger":
        raise _resume_error(
            f"{args.snapshot!r} is a "
            f"{payload.get('kind', 'unknown') if isinstance(payload, dict) else 'unknown'!r} "
            "snapshot, not a run ledger (only run-ledger snapshots written by "
            "--checkpoint-every/--checkpoint-dir can be resumed)")
    command = payload.get("command")
    if command not in COMMANDS:
        raise _resume_error(f"snapshot names unknown command {command!r}")
    if not isinstance(payload.get("argv"), list) \
            or not isinstance(payload.get("units"), dict):
        raise _resume_error(
            f"{args.snapshot!r} is missing its argv/unit ledger "
            "(corrupt or hand-edited run-ledger snapshot)")
    sub_args = _build_parser().parse_args(payload["argv"])
    # a `repro trace/sanitize <target>` run checkpoints under its target
    resolved = sub_args.command
    if resolved in ("trace", "sanitize"):
        resolved = "fig6" if sub_args.target == "nas" else sub_args.target
    if resolved != command:
        raise _resume_error("snapshot argv does not match its command")
    sub_args._argv = list(payload["argv"])
    sub_args._resume_units = payload["units"]
    if getattr(sub_args, "no_fastpath", False):
        from repro import fastpath

        fastpath.set_enabled(False)
    _dispatch(sub_args)


def _cmd_lint(args) -> None:
    """Run the determinism lint (``repro lint``): the per-line detlint
    rules plus the simlint whole-program passes, against ``src/repro``
    by default.  Exit 0 clean, 1 findings, 2 bad invocation — the same
    contract as ``python tools/simlint``."""
    root = Path(__file__).resolve().parents[2]
    tools = root / "tools"
    if not (tools / "simlint" / "__init__.py").exists():
        print("error: lint: tools/simlint not found (repro lint runs "
              "from a source checkout)", file=sys.stderr)
        raise SystemExit(2)
    if str(tools) not in sys.path:
        sys.path.insert(0, str(tools))
    from simlint.cli import main as simlint_main

    argv = list(args.lint_paths) or [str(root / "src" / "repro")]
    argv += ["--format", args.lint_format]
    rc = simlint_main(argv)
    if rc == 1:
        raise SystemExit(1)
    if rc:
        print("error: lint: invalid invocation (see messages above)",
              file=sys.stderr)
        raise SystemExit(2)


def _cmd_trace(args) -> None:
    """Run a figure driver with tracing on (``repro trace fig5``);
    ``nas`` is an alias for ``fig6``.  The tracer only records: the
    traced run executes the same adapter and MPI chains, and dispatches
    the same kernel events, as the untraced one."""
    args.command = "fig6" if args.target == "nas" else args.target
    if args.command == "faults" and args.fault_plan is None:
        args.fault_plan = DEFAULT_FAULT_PLAN
    _dispatch(args)


def _cmd_sanitize(args) -> None:
    """Run a figure driver with the shadow-state sanitizer on
    (``repro sanitize fig5``); ``nas`` is an alias for ``fig6``."""
    args.command = "fig6" if args.target == "nas" else args.target
    if getattr(args, "sanitize", None) is None:
        args.sanitize = "all"
    if args.command == "faults" and getattr(args, "fault_plan", None) is None:
        args.fault_plan = DEFAULT_FAULT_PLAN
    _dispatch(args)


def _make_sanitizer(args):
    """The :class:`repro.sanitize.Sanitizer` requested by ``--sanitize``,
    or None.  A bad group spec exits with code 2."""
    spec = getattr(args, "sanitize", None)
    if spec is None:
        return None
    from repro import sanitize as sanitize_mod

    try:
        return sanitize_mod.Sanitizer(sanitize_mod.parse_rules(spec))
    except ValueError as exc:
        print(f"error: --sanitize: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _write_trace(args, tracer, out: Optional[str]) -> None:
    """Write/print a finished tracer's outputs (shared by the clean and
    the sanitizer-violation exits, so a violating run still leaves the
    trace timeline its violation event links into)."""
    if out:
        tracer.write(out)
        print(f"trace: wrote {out} ({len(tracer.events)} events)",
              file=sys.stderr)
    if getattr(args, "trace", False):
        from repro.analysis.breakdown import phase_delta_table

        print()
        print(phase_delta_table(tracer))


def _dispatch(args) -> None:
    """Dispatch one parsed command: output-path preflight, then the
    command itself, wrapped in a capturing tracer when ``--trace`` /
    ``--trace-out`` ask for one and a capturing sanitizer when
    ``--sanitize`` asks for one.  A violation of
    either trigger exits 3 on every path.  Shared by :func:`main` and
    the ``resume`` / ``trace`` / ``sanitize`` re-dispatch paths, so a
    resumed traced run traces exactly like the original."""
    fn = COMMANDS[args.command][0]
    if args.command in ("trace", "resume", "sanitize"):
        # all three re-enter _dispatch themselves with the target command
        fn(args)
        return
    _check_harness_flags(args)
    ckpt_dir = getattr(args, "checkpoint_dir", None)
    if ckpt_dir:
        _ensure_dir(ckpt_dir, "--checkpoint-dir")
    from repro import sanitize as sanitize_mod

    sanitizer = _make_sanitizer(args)
    out = getattr(args, "trace_out", None)
    tracer = None
    with contextlib.ExitStack() as stack:
        if sanitizer is not None:
            stack.enter_context(sanitize_mod.capturing(sanitizer))
        if out or getattr(args, "trace", False):
            from repro import trace as trace_mod

            if out:
                _ensure_parent_dir(out, "--trace-out")
            tracer = trace_mod.Tracer()
            stack.enter_context(trace_mod.capturing(tracer))
        try:
            fn(args)
        except sanitize_mod.SanitizerError as exc:
            # keep the timeline: its last event is this violation
            if tracer is not None:
                _write_trace(args, tracer, out)
            print(f"error: {exc}", file=sys.stderr)
            raise SystemExit(3)
        if tracer is not None:
            tracer.flush()
    if sanitizer is not None:
        # stderr, so sanitized stdout stays byte-identical to a plain run
        print(sanitizer.report(), file=sys.stderr)
    if tracer is not None:
        _write_trace(args, tracer, out)


COMMANDS = {
    "fig3": (_cmd_figure, "Fig 3: SGE-count/size sweep (verbs level)"),
    "fig4": (_cmd_figure, "Fig 4: in-page offset sweep"),
    "fig5": (_cmd_figure, "Fig 5: IMB SendRecv, 4 curves (Opteron)"),
    "xeon": (_cmd_figure, "§5.1: the Xeon driver-patch experiment"),
    "registration": (_cmd_figure, "registration cost, 4K vs 2M"),
    "fig6": (_cmd_figure, "Fig 6: NAS hugepage improvements"),
    "tlb": (_cmd_figure, "§5.2: TLB miss counts"),
    "abinit": (_cmd_figure, "§2/§3.2: the allocator comparison"),
    "pingpong": (_cmd_pingpong, "IMB PingPong latency view (companion)"),
    "breakdown": (_cmd_breakdown, "per-component message cost analysis"),
    "faults": (_cmd_faults, "fault-injection demo: lossy link + report"),
    "perf": (_cmd_perf, "time fast vs reference paths, compare to a BENCH file"),
    "resume": (_cmd_resume, "resume a checkpointed run from a snapshot"),
    "trace": (_cmd_trace, "run a figure driver with tracing on"),
    "sanitize": (_cmd_sanitize, "run a figure driver under the sanitizer"),
    "lint": (_cmd_lint, "determinism lint: detlint rules + simlint passes"),
}


def _build_parser() -> argparse.ArgumentParser:
    """The full CLI parser (shared by main() and ``repro resume``)."""
    # --no-fastpath is accepted both before and after the command name;
    # SUPPRESS keeps a subparser's default from clobbering a value the
    # main parser already set
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--no-fastpath", dest="no_fastpath",
                        action="store_true", default=argparse.SUPPRESS,
                        help="use the reference per-element costing loops "
                             "instead of the batched fast paths")
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the paper's tables and figures.",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("list", help="list available experiments", parents=[common])
    for name, (_fn, help_text) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text, parents=[common])
        if name == "trace":
            p.add_argument("target", choices=["fig5", "fig6", "nas", "faults"],
                           help="the driver to run traced (nas = fig6)")
            p.add_argument("--trace-out", dest="trace_out",
                           default="trace.json", metavar="FILE",
                           help="Chrome trace_event JSON output file "
                                "(default trace.json)")
        if name == "sanitize":
            p.add_argument("target", choices=["fig5", "fig6", "nas", "faults"],
                           help="the driver to run sanitized (nas = fig6)")
        if name in ("fig6", "tlb", "trace", "sanitize"):
            p.add_argument("--class", dest="klass", default="W",
                           choices=["W", "B", "C"],
                           help="NAS problem class (default W; the paper "
                                "uses C)")
        if name == "breakdown":
            p.add_argument("--mb", type=float, default=4.0,
                           help="message size in MB")
        if name == "lint":
            p.add_argument("lint_paths", nargs="*", default=[],
                           metavar="PATH",
                           help="files or package directories to lint "
                                "(default: this checkout's src/repro)")
            p.add_argument("--format", dest="lint_format",
                           choices=["text", "json"], default="text",
                           help="finding output format (default: text)")
        if name in ("fig5", "pingpong", "faults", "trace", "sanitize"):
            default_plan = DEFAULT_FAULT_PLAN if name == "faults" else None
            p.add_argument("--fault-plan", dest="fault_plan",
                           default=default_plan, metavar="SPEC",
                           help="fault plan: inline key=value,... spec or a "
                                "path to a JSON plan file (see repro.faults)")
            p.add_argument("--fault-seed", dest="fault_seed", type=int,
                           default=0, help="fault injector RNG seed")
        if name in ("fig5", "fig6", "tlb", "faults"):
            p.add_argument("--trace", action="store_true",
                           help="trace the run; print the per-phase "
                                "counter-delta table after the output")
            p.add_argument("--trace-out", dest="trace_out", default=None,
                           metavar="FILE",
                           help="write the run's Chrome trace_event JSON "
                                "timeline to FILE (implies tracing)")
        if name in ("fig5", "fig6", "tlb", "faults", "trace", "sanitize"):
            p.add_argument("--sanitize", dest="sanitize", nargs="?",
                           const="all", default=None, metavar="GROUPS",
                           help="run under the shadow-state sanitizer; "
                                "GROUPS is a comma list of heap,mr,tlb,"
                                "counter (default: all)")
        if name in ("fig5", "fig6", "tlb", "faults", "trace"):
            p.add_argument("--checkpoint-every", dest="checkpoint_every",
                           type=int, default=None, metavar="TICKS",
                           help="snapshot the run ledger every N simulated "
                                "ticks (0 = after every unit)")
            p.add_argument("--checkpoint-dir", dest="checkpoint_dir",
                           default=None, metavar="DIR",
                           help="snapshot directory (default: checkpoints)")
            p.add_argument("--audit", action="store_true",
                           help="sweep every unit's finished cluster for "
                                "broken cross-layer invariants")
            p.add_argument("--hang-timeout", dest="hang_timeout", type=float,
                           default=None, metavar="SECONDS",
                           help="watchdog: dump a post-mortem and exit 2 if "
                                "the event loop makes no progress for this "
                                "many wall seconds")
        if name == "resume":
            p.add_argument("snapshot",
                           help="snapshot file written by --checkpoint-every "
                                "(e.g. checkpoints/latest.snap)")
        if name == "perf":
            p.add_argument("--quick", action="store_true",
                           help="smaller sweeps (the CI smoke configuration)")
            p.add_argument("--out", default="",
                           help="JSON results file to merge into (default: "
                                "write none; never the --compare file)")
            p.add_argument("--compare", default=None, metavar="BASELINE",
                           help="fail if fig5's speedup regresses >20%% vs "
                                "this baseline's same-mode entry")
            p.add_argument("--only", action="append", default=None,
                           metavar="NAME",
                           help="run only the named benchmark (repeatable)")
            p.add_argument("--max-slowdown", dest="max_slowdown", type=float,
                           default=None, metavar="FRACTION",
                           help="with --compare: also fail if fig5's "
                                "absolute fast-path time exceeds the "
                                "baseline's by this fraction (e.g. 0.05; "
                                "same-machine baselines only)")
            p.add_argument("--trace-overhead", dest="trace_overhead",
                           action="store_true",
                           help="also time fig5 with tracing off vs on and "
                                "report the enabled-mode overhead")
            p.add_argument("--sanitize-overhead", dest="sanitize_overhead",
                           action="store_true",
                           help="also time fig5 with the sanitizer off vs "
                                "on and report the enabled-mode overhead")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    # the raw argv is recorded in checkpoint manifests so `repro resume`
    # can re-dispatch the identical command
    args._argv = list(argv) if argv is not None else list(sys.argv[1:])
    if getattr(args, "no_fastpath", False):
        from repro import fastpath

        fastpath.set_enabled(False)
    if args.command in (None, "list"):
        for name, (_fn, help_text) in COMMANDS.items():
            print(f"  {name:<14} {help_text}")
        return 0
    _dispatch(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
