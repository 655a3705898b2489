"""Pass ``host-taint``: host-only values must not reach sim-context calls.

The determinism contract allows host code (the perf harness, the hang
watchdog, the CLI) to read wall clocks and the environment — for
measurement, deadlines and logging — but none of those values may ever
*parameterise the simulation*: a simulated cluster seeded from
``time.monotonic()`` replays differently on resume, which is exactly
the class of bug no per-line rule can see once the value travels
through a couple of assignments and helpers.

Mechanics:

- **Sim-context functions** are found by call-graph reachability onto
  the kernel primitives: a function that (transitively through resolved
  project calls) invokes ``SimKernel.event/timeout/process/run/schedule``
  — or any call spelled ``*.kernel.<primitive>(...)`` — drives the
  simulated timeline and is sim-context.
- **Host sources** taint a value: host-clock reads (including the
  ``perf_counter``/``monotonic`` family the per-line rules deliberately
  allow for measurement), socket/stream receives, and ``os.environ`` /
  ``os.getenv`` reads of anything beyond the sanctioned determinism
  toggles (:data:`SANCTIONED_ENV`).
- Taint propagates through assignments, arbitrary expressions, returns
  (a function returning taint taints its call sites) and arguments (a
  tainted argument taints the callee's parameter), iterated to a
  fixpoint over the whole call graph.
- A finding fires where a tainted expression is passed as an argument
  to a sim-context function — the boundary crossing, not every hop of
  the chain.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, List, Optional, Set, Tuple

from simlint.baseline import PassFinding
from simlint.model import FunctionInfo, Project, dotted

PASS_ID = "host-taint"

#: environment toggles that select *which deterministic machinery* runs
#: (never a simulated quantity), so reading them is not a host leak
SANCTIONED_ENV = {
    "REPRO_NO_FASTPATH",
}

#: host clock reads — includes the monotonic/perf family that the
#: per-line ``wallclock`` rule allows for *measurement*: measuring is
#: fine, feeding the measurement into simulated state is not
_CLOCK_SOURCES = {
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.process_time_ns",
    "datetime.now", "datetime.utcnow", "datetime.today",
    "datetime.datetime.now", "datetime.datetime.utcnow", "date.today",
    "datetime.date.today",
}

#: method names whose call result is data read off a socket
_SOCKET_READS = {"recv", "recvfrom", "recv_into", "recvmsg"}
#: stream reads count only on receivers that look like network streams
_STREAM_READS = {"read", "readline", "readexactly", "readuntil"}
_STREAM_RECV_NAMES = re.compile(r"(reader|sock|conn)", re.IGNORECASE)

#: calls spelled ``<...>.kernel.<prim>()`` (or on a bare name ending in
#: ``kernel``) mark a function as driving the simulated timeline even
#: when the receiver's type cannot be resolved
_KERNEL_PRIM_CALL = re.compile(
    r"(^|\.)kernel\.(event|timeout|process|run|schedule|_schedule)$")
_KERNEL_METHODS = {"event", "timeout", "process", "run", "schedule",
                   "_schedule"}


def _is_env_source(call: ast.Call) -> Optional[str]:
    """The env var name when this call/subscript reads the environment
    beyond the sanctioned toggles ('<dynamic>' for non-literal keys)."""
    d = dotted(call.func)
    if d in ("os.getenv", "os.environ.get", "environ.get"):
        if call.args and isinstance(call.args[0], ast.Constant):
            key = call.args[0].value
            return None if key in SANCTIONED_ENV else str(key)
        return "<dynamic>"
    return None


def _env_subscript(node: ast.Subscript) -> Optional[str]:
    d = dotted(node.value)
    if d in ("os.environ", "environ"):
        if isinstance(node.slice, ast.Constant):
            key = node.slice.value
            return None if key in SANCTIONED_ENV else str(key)
        return "<dynamic>"
    return None


def _source_of_call(call: ast.Call) -> Optional[str]:
    """A human-readable source description when *call* reads host state."""
    d = dotted(call.func)
    if d in _CLOCK_SOURCES:
        return f"host clock ({d})"
    if isinstance(call.func, ast.Attribute):
        attr = call.func.attr
        recv = dotted(call.func.value) or ""
        if attr in _SOCKET_READS:
            return f"socket receive ({recv}.{attr})"
        if attr in _STREAM_READS and _STREAM_RECV_NAMES.search(recv):
            return f"stream read ({recv}.{attr})"
    env = _is_env_source(call)
    if env is not None:
        return f"unsanctioned environment read ({env})"
    return None


def _calls_kernel_prim(project: Project, qual: str) -> bool:
    for callee, node in project.calls.get(qual, []):
        if callee and ".SimKernel." in callee and \
                callee.rsplit(".", 1)[-1] in _KERNEL_METHODS:
            return True
        d = dotted(node.func)
        if d and _KERNEL_PRIM_CALL.search(d):
            return True
    return False


def sim_context_functions(project: Project) -> Set[str]:
    """Functions from which a kernel primitive is reachable."""
    sim: Set[str] = {q for q in project.functions
                     if _calls_kernel_prim(project, q)}
    # reverse closure: callers of sim-context functions are sim-context
    changed = True
    while changed:
        changed = False
        for qual in project.functions:
            if qual in sim:
                continue
            if project.callees(qual) & sim:
                sim.add(qual)
                changed = True
    return sim


class _TaintState:
    """Fixpoint state: per-function tainted params and return taint."""

    def __init__(self) -> None:
        self.tainted_params: Dict[str, Dict[str, str]] = {}  # fn -> param -> why
        self.returns: Dict[str, Optional[str]] = {}          # fn -> why | None


def _expr_taint(expr: ast.AST, env: Dict[str, str], project: Project,
                fn: FunctionInfo, state: _TaintState) -> Optional[str]:
    """Why this expression is tainted, or None."""
    for node in ast.walk(expr):
        if isinstance(node, ast.Name) and node.id in env:
            return env[node.id]
        if isinstance(node, ast.Attribute):
            d = dotted(node)
            if d and d in env:
                return env[d]
        if isinstance(node, ast.Subscript):
            env_key = _env_subscript(node)
            if env_key is not None:
                return f"unsanctioned environment read ({env_key})"
        if isinstance(node, ast.Call):
            src = _source_of_call(node)
            if src:
                return src
            callee = project.resolve_call(fn, node)
            if callee:
                why = state.returns.get(callee)
                if why:
                    return f"{why} via {callee}()"
    return None


def _walk_function(project: Project, fn: FunctionInfo, state: _TaintState,
                   sim: Set[str],
                   findings: List[Tuple[str, int, str, str]]) -> bool:
    """One propagation round over *fn*.  Returns True when the global
    state changed (another fixpoint round is needed)."""
    env: Dict[str, str] = dict(state.tainted_params.get(fn.qualname, {}))
    changed = False

    body = getattr(fn.node, "body", [])
    for stmt in _linearise(body):
        # assignments propagate taint to their targets
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            value = stmt.value
            if value is not None:
                why = _expr_taint(value, env, project, fn, state)
                if why:
                    targets = (stmt.targets
                               if isinstance(stmt, ast.Assign)
                               else [stmt.target])
                    for t in targets:
                        for leaf in ast.walk(t):
                            if isinstance(leaf, ast.Name):
                                env[leaf.id] = why
                            elif isinstance(leaf, ast.Attribute):
                                d = dotted(leaf)
                                if d:
                                    env[d] = why
        elif isinstance(stmt, ast.For):
            why = _expr_taint(stmt.iter, env, project, fn, state)
            if why:
                for leaf in ast.walk(stmt.target):
                    if isinstance(leaf, ast.Name):
                        env[leaf.id] = why
        elif isinstance(stmt, ast.Return) and stmt.value is not None:
            why = _expr_taint(stmt.value, env, project, fn, state)
            if why and not state.returns.get(fn.qualname):
                state.returns[fn.qualname] = why
                changed = True

        # every call in the statement: boundary check + param propagation
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Call):
                continue
            callee = project.resolve_call(fn, node)
            args = list(node.args) + [kw.value for kw in node.keywords]
            for i, arg in enumerate(args):
                why = _expr_taint(arg, env, project, fn, state)
                if why is None:
                    continue
                if callee and callee in sim:
                    findings.append((fn.path, node.lineno, fn.qualname,
                                     f"{why} flows into sim-context "
                                     f"{callee}()"))
                elif callee and callee in project.functions:
                    target = project.functions[callee]
                    params = [p for p in target.params if p != "self"]
                    if i < len(node.args) and i < len(params):
                        per_fn = state.tainted_params.setdefault(callee, {})
                        if params[i] not in per_fn:
                            per_fn[params[i]] = why
                            changed = True
    return changed


def _linearise(body: List[ast.stmt]) -> List[ast.stmt]:
    """All statements in source order, branches flattened (the analysis
    is a may-taint over-approximation, so path order is irrelevant but
    source order makes the single pass converge quickly)."""
    out: List[ast.stmt] = []
    for stmt in body:
        out.append(stmt)
        for field in ("body", "orelse", "finalbody"):
            out.extend(_linearise(getattr(stmt, field, []) or []))
        for handler in getattr(stmt, "handlers", []) or []:
            out.extend(_linearise(handler.body))
    return out


def run(project: Project) -> List[PassFinding]:
    sim = sim_context_functions(project)
    state = _TaintState()
    findings: List[Tuple[str, int, str, str]] = []
    for _round in range(12):
        findings = []
        changed = False
        for fn in project.functions.values():
            if _walk_function(project, fn, state, sim, findings):
                changed = True
        if not changed:
            break
    seen: Set[Tuple[str, int, str]] = set()
    out: List[PassFinding] = []
    for path, line, symbol, message in findings:
        key = (path, line, message)
        if key in seen:
            continue
        seen.add(key)
        out.append(PassFinding(pass_id=PASS_ID, path=path, line=line,
                               symbol=symbol, message=message))
    out.sort(key=lambda f: (f.path, f.line, f.message))
    return out
