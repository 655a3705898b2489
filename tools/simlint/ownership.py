"""Pass ``ownership-pairing``: hold/release and pin/unpin must balance.

Resource slots (:meth:`repro.engine.resources.Resource.request` /
``release``) and MR pinning (:meth:`repro.mpi.regcache.RegistrationCache._pin` /
``_unpin``) are manual protocols: the type system does not enforce
them, the sanitizer only sees the paths a given run takes, and an
unbalanced error path surfaces as a leak (or a premature free)
thousands of events later.  This pass checks them statically, per
function, with enough path sensitivity to catch the classic bug shape:
*acquired on one path, forgotten on another*.

Mechanics — a small abstract interpreter over each function body:

- ``x.hold()`` / ``x.release()`` adjust a per-receiver counter; helper
  style ``self._pin(mr)`` / ``self._unpin(mr)`` adjusts the counter of
  the *argument*;
- branches fork the abstract state (``if``/``try``-handlers), and
  ``finally`` blocks apply to every path through the ``try``;
- ownership *transfers* end the obligation: returning the receiver,
  storing it into an attribute/container, or yielding it;
- a receiver whose balance changes inside a loop is skipped (bulk
  ownership of collections is a different protocol);
- effects of **direct callees** are inlined one level deep: a project
  function whose every normal path applies the same ±1 to one of its
  parameters acts as that delta at each call site.

A finding fires when the normal exits (fall-through and ``return``) of
a function disagree on a receiver's balance, or when a locally-created
receiver ends every path with a positive balance and was never
transferred anywhere.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from simlint.baseline import PassFinding
from simlint.model import FunctionInfo, Project, dotted

PASS_ID = "ownership-pairing"

#: method name -> (pair kind, delta).  ``hold``-kind methods take no
#: arguments (hold/release, Resource.request/release) and act on
#: their receiver; ``pin``-kind helpers act on their first argument
#: (``self._pin(mr)``) or, argless, on their receiver (``mr.pin()``).
_ACQUIRE = {"hold": ("hold", +1), "request": ("hold", +1),
            "_pin": ("pin", +1), "pin": ("pin", +1)}
_RELEASE = {"release": ("hold", -1), "_unpin": ("pin", -1),
            "unpin": ("pin", -1)}

#: a conditional acquire whose outcome is a runtime boolean — the
#: receiver's balance is path-correlated with data we do not model, so
#: any receiver it touches becomes unanalyzable in that function
_CONDITIONAL_ACQUIRE = {"try_acquire"}

_MAX_STATES = 64

_State = Dict[Tuple[str, str], int]          # (kind, receiver) -> balance
_Summary = Dict[str, Tuple[str, int]]        # param -> (kind, delta)


class _Tracker:
    def __init__(self, project: Project, fn: FunctionInfo,
                 summaries: Dict[str, _Summary]):
        self.project = project
        self.fn = fn
        self.summaries = summaries
        self.skip: Set[Tuple[str, str]] = set()   # loop-scaled receivers
        self.transferred: Set[Tuple[str, str]] = set()
        self.exits: List[_State] = []             # normal exits

    # -- effects ------------------------------------------------------------
    def _call_effects(self, call: ast.Call) -> List[Tuple[str, str, int]]:
        """(kind, receiver, delta) effects of one call."""
        if isinstance(call.func, ast.Attribute):
            name = call.func.attr
            if name in _CONDITIONAL_ACQUIRE:
                recv = dotted(call.func.value)
                if recv:
                    self.skip.add(("hold", recv))
                return []
            spec = _ACQUIRE.get(name) or _RELEASE.get(name)
            if spec is not None:
                kind, delta = spec
                if kind == "hold":
                    # hold-kind methods are argless; a same-named call
                    # with arguments (pool.release(frames)) is a
                    # different protocol
                    if call.args or call.keywords:
                        return []
                    recv = dotted(call.func.value)
                elif call.args:
                    recv = dotted(call.args[0])
                else:
                    recv = dotted(call.func.value)
                return [(kind, recv, delta)] if recv else []
        callee = self.project.resolve_call(self.fn, call)
        summary = self.summaries.get(callee or "")
        if not summary:
            return []
        target = self.project.functions[callee]  # type: ignore[index]
        params = target.params[1:] if target.cls else target.params
        out: List[Tuple[str, str, int]] = []
        for i, arg in enumerate(call.args):
            if i < len(params) and params[i] in summary:
                kind, delta = summary[params[i]]
                recv = dotted(arg)
                if recv:
                    out.append((kind, recv, delta))
        return out

    def _apply_stmt_effects(self, stmt: ast.stmt,
                            states: List[_State]) -> None:
        for node in _walk_same_scope(stmt):
            if isinstance(node, ast.Call):
                for kind, recv, delta in self._call_effects(node):
                    for st in states:
                        st[(kind, recv)] = st.get((kind, recv), 0) + delta
            # transfers into containers: x.append(recv), d[k] = recv
            if isinstance(node, ast.Call) and isinstance(
                    node.func, ast.Attribute) and node.func.attr in (
                    "append", "add", "appendleft", "put", "put_nowait"):
                for arg in node.args:
                    self._transfer(dotted(arg), states)

    def _transfer(self, recv: Optional[str],
                  states: List[_State]) -> None:
        if recv is None:
            return
        for st in states:
            for key in list(st):
                if key[1] == recv and st[key] > 0:
                    st[key] = 0
                    self.transferred.add(key)

    # -- statement walk -----------------------------------------------------
    def run_block(self, body: List[ast.stmt],
                  states: List[_State]) -> List[_State]:
        """Returns the live (fall-through) states after *body*."""
        for stmt in body:
            if not states:
                return []
            states = self._run_stmt(stmt, states)
            if len(states) > _MAX_STATES:
                # fold together — lose path sensitivity, keep soundness
                # of the "skip" set by marking disagreeing receivers
                merged = self._merge(states)
                states = merged
        return states

    def _merge(self, states: List[_State]) -> List[_State]:
        keys = {k for st in states for k in st}
        merged: _State = {}
        for k in keys:
            vals = {st.get(k, 0) for st in states}
            if len(vals) > 1:
                self.skip.add(k)
            merged[k] = vals.pop()
        return [merged]

    def _run_stmt(self, stmt: ast.stmt,
                  states: List[_State]) -> List[_State]:
        if isinstance(stmt, ast.Return):
            self._apply_stmt_effects(stmt, states)
            if stmt.value is not None:
                self._transfer(dotted(stmt.value), states)
            self.exits.extend(dict(st) for st in states)
            return []
        if isinstance(stmt, ast.Raise):
            # abnormal exit: excluded from balance comparison
            self._apply_stmt_effects(stmt, states)
            return []
        if isinstance(stmt, ast.If):
            self._apply_effects_of_expr(stmt.test, states)
            then = self.run_block(stmt.body, [dict(s) for s in states])
            other = self.run_block(stmt.orelse, [dict(s) for s in states])
            return then + other
        if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
            if isinstance(stmt, ast.While):
                self._apply_effects_of_expr(stmt.test, states)
            else:
                self._apply_effects_of_expr(stmt.iter, states)
            entry = [dict(s) for s in states]
            body_states = self.run_block(stmt.body, [dict(s) for s in states])
            # balance changing across one iteration => loop-scaled
            for st_in, st_out in zip(entry, body_states):
                for k in set(st_in) | set(st_out):
                    if st_in.get(k, 0) != st_out.get(k, 0):
                        self.skip.add(k)
            states = self.run_block(stmt.orelse, states)
            return states
        if isinstance(stmt, ast.Try):
            exits_before = len(self.exits)
            body_states = self.run_block(stmt.body, [dict(s) for s in states])
            branch_states = list(body_states)
            for handler in stmt.handlers:
                branch_states += self.run_block(
                    handler.body, [dict(s) for s in states])
            if stmt.orelse:
                branch_states = self.run_block(stmt.orelse, branch_states)
            if stmt.finalbody:
                # finally applies to fall-through paths and to returns
                # taken from inside the try
                exits_inside = len(self.exits)
                branch_states = self.run_block(stmt.finalbody, branch_states)
                for i in range(exits_before, exits_inside):
                    ex = [self.exits[i]]
                    self.run_block_effects_only(stmt.finalbody, ex)
            return branch_states
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._apply_effects_of_expr(item.context_expr, states)
            return self.run_block(stmt.body, states)
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return states  # nested scopes are analysed on their own
        # plain statement: apply effects and transfers
        self._apply_stmt_effects(stmt, states)
        if isinstance(stmt, ast.Assign):
            if any(isinstance(t, (ast.Attribute, ast.Subscript))
                   for t in stmt.targets):
                self._transfer(dotted(stmt.value), states)
        elif isinstance(stmt, ast.Expr) and isinstance(
                stmt.value, (ast.Yield, ast.YieldFrom)):
            val = stmt.value.value
            if val is not None:
                self._transfer(dotted(val), states)
        return states

    def run_block_effects_only(self, body: List[ast.stmt],
                               states: List[_State]) -> None:
        for stmt in body:
            self._apply_stmt_effects(stmt, states)

    def _apply_effects_of_expr(self, expr: Optional[ast.expr],
                               states: List[_State]) -> None:
        if expr is None:
            return
        for node in _walk_same_scope(expr):
            if isinstance(node, ast.Call):
                for kind, recv, delta in self._call_effects(node):
                    for st in states:
                        st[(kind, recv)] = st.get((kind, recv), 0) + delta


def _walk_same_scope(node: ast.AST) -> List[ast.AST]:
    """Like :func:`ast.walk`, but does not descend into nested scopes —
    a lambda or inner ``def`` runs later (usually as a callback), so its
    calls are not effects of the enclosing statement."""
    out: List[ast.AST] = []
    stack: List[ast.AST] = [node]
    while stack:
        cur = stack.pop()
        out.append(cur)
        for child in ast.iter_child_nodes(cur):
            if isinstance(child, (ast.Lambda, ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                continue
            stack.append(child)
    return out


def _analyze(project: Project, fn: FunctionInfo,
             summaries: Dict[str, _Summary]) -> Tuple[List[_State],
                                                      Set[Tuple[str, str]],
                                                      Set[Tuple[str, str]]]:
    tracker = _Tracker(project, fn, summaries)
    body = list(getattr(fn.node, "body", []))
    fall = tracker.run_block(body, [{}])
    exits = tracker.exits + fall
    return exits, tracker.skip, tracker.transferred


def _summarise(exits: List[_State], skip: Set[Tuple[str, str]],
               fn: FunctionInfo) -> _Summary:
    """A (param -> delta) summary when every normal exit agrees."""
    if not exits:
        return {}
    params = set(fn.params[1:] if fn.cls else fn.params)
    keys = {k for st in exits for k in st}
    summary: _Summary = {}
    for kind, recv in keys:
        if (kind, recv) in skip or recv not in params:
            continue
        vals = {st.get((kind, recv), 0) for st in exits}
        if len(vals) == 1:
            delta = vals.pop()
            if delta:
                summary[recv] = (kind, delta)
    return summary


def run(project: Project) -> List[PassFinding]:
    # round 1: per-function summaries (no callee inlining)
    summaries: Dict[str, _Summary] = {}
    for qual, fn in project.functions.items():
        try:
            exits, skip, _transfers = _analyze(project, fn, {})
        except RecursionError:  # pragma: no cover - pathological nesting
            continue
        s = _summarise(exits, skip, fn)
        if s:
            summaries[qual] = s

    findings: List[PassFinding] = []
    for qual, fn in project.functions.items():
        try:
            exits, skip, transferred = _analyze(project, fn, summaries)
        except RecursionError:  # pragma: no cover - pathological nesting
            continue
        if not exits:
            continue
        keys = sorted({k for st in exits for k in st})
        params = set(fn.params)
        for key in keys:
            kind, recv = key
            if key in skip:
                continue
            vals = sorted({st.get(key, 0) for st in exits})
            line = getattr(fn.node, "lineno", 0)
            if len(vals) > 1:
                findings.append(PassFinding(
                    pass_id=PASS_ID, path=fn.path, line=line, symbol=qual,
                    message=(f"{kind} balance of {recv!r} differs across "
                             f"normal paths ({', '.join(map(str, vals))}): "
                             f"one path acquires (or releases) what "
                             f"another does not")))
            elif (vals[0] > 0 and recv.split(".")[0] not in params
                    and not recv.startswith("self.")
                    and key not in transferred):
                findings.append(PassFinding(
                    pass_id=PASS_ID, path=fn.path, line=line, symbol=qual,
                    message=(f"{kind} of local {recv!r} acquired on every "
                             f"path but never released or transferred")))
    findings.sort(key=lambda f: (f.path, f.line, f.symbol, f.message))
    return findings
