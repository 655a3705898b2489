"""Per-line determinism rules (the original ``detlint`` rule set).

The whole repository rests on one property: a run is a pure function of
its inputs and seeds.  Checkpoint/resume (``repro resume``), the fast
path equivalence harness (``repro perf``), byte-identical traces and the
sanitizer's byte-identity guarantee all break silently the moment
wall-clock time, an unseeded RNG or unordered iteration leaks into
simulation state.  These rules flag the patterns that have historically
caused exactly that:

``wallclock``
    Calls that read the host clock or calendar (``time.time``,
    ``time.strftime``, ``datetime.now`` ...).  ``time.perf_counter`` /
    ``time.monotonic`` are allowed: they may *measure* a run but never
    feed simulated state (the whole-program taint pass in
    :mod:`simlint.taint` checks that they actually don't).
``wallclock-sleep``
    Wall-clock waits and process signalling (``time.sleep``,
    ``os.kill``, ``signal.alarm``) — real-time delays and signals have
    no place in a simulated timeline.  No module of ``repro`` sleeps or
    signals, so nothing may suppress it.
``socket-io``
    Network socket construction (``asyncio.start_server``,
    ``socket.socket``, ...) — the simulator models its own wire; real
    sockets in simulation code mean external state is leaking in.
    No module of ``repro`` opens sockets, so nothing may suppress it.
``unseeded-random``
    The module-level ``random.*`` functions (global, unseeded RNG),
    ``random.Random()`` constructed without a seed, and ``numpy.random``
    use.  Seeded ``random.Random(seed)`` instances are fine.
``set-iteration``
    Iterating directly over a set display or ``set()``/``frozenset()``
    call — iteration order is hash-dependent, so anything derived from
    it (output, counters, schedules) can differ between processes.
    Wrap in ``sorted(...)`` instead.
``float-counter``
    A float expression used as the *amount* of a ``CounterSet.add`` /
    ``add_many`` — counters are exact integer event counts; floats
    accumulate rounding that diverges between the fast and reference
    paths (the runtime twin is ``repro.sanitize``'s
    ``counter.float-amount``).
``mutable-class-attr``
    A mutable literal (``[]``, ``{}``, ``set()`` ...) assigned at class
    level: shared across instances, so state leaks between runs.
    ALL_CAPS constants and ``@dataclass`` bodies
    (where ``x = field(...)`` and class-level defaults are idiomatic)
    are exempt.
``intern-str``
    ``sys.intern`` on an argument that is not provably ``str`` —
    it raises ``TypeError`` on ``str`` subclasses, which routinely
    arrive from deserialisers.  Normalise with ``str(...)`` first.
``refcount-probe``
    Any use of ``sys.getrefcount`` (call or import).  Refcounts are an
    interpreter implementation detail — they shift with closure cells,
    debugger frames, C extensions and CPython version, so logic keyed
    on them is nondeterministic by construction.  The event kernel once
    recycled pooled events when ``getrefcount(ev) == 2`` and corrupted
    any event a callback had stashed; an object's lifetime must follow
    from the code that creates and drops it, never be inferred from the
    interpreter.

Any finding can be suppressed on its line with ``# detlint: ignore``
(all rules) or ``# detlint: ignore[rule,...]`` (listed rules only) —
the escape hatch doubles as documentation of *why* the pattern is safe
there.  Pure stdlib, so it runs in CI and in the tests without any
third-party dependency.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

RULES: Dict[str, str] = {
    "wallclock": "host clock/calendar read (time.time, datetime.now, ...)",
    "wallclock-sleep": "wall-clock wait or process signal (time.sleep, "
                       "os.kill, signal.alarm)",
    "unseeded-random": "global random.* / unseeded random.Random() / "
                       "numpy.random use",
    "set-iteration": "iteration over an unordered set literal or "
                     "set()/frozenset() call",
    "float-counter": "float amount passed to CounterSet.add/add_many",
    "socket-io": "real network socket construction (asyncio.start_server, "
                 "socket.socket, ...)",
    "mutable-class-attr": "mutable literal shared as a class attribute",
    "intern-str": "sys.intern on an argument not provably str",
    "refcount-probe": "sys.getrefcount use; refcounts are interpreter "
                      "details, never simulation state",
}

#: calls that read the host clock or calendar
_WALLCLOCK = {
    "time.time", "time.time_ns", "time.strftime", "time.localtime",
    "time.ctime", "time.gmtime", "time.asctime",
    "datetime.now", "datetime.utcnow", "datetime.today",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "date.today", "datetime.date.today",
}

#: wall-clock waits and process signalling — real time leaking into a run
_WALLCLOCK_SLEEP = {"time.sleep", "os.kill", "signal.alarm"}

#: real network socket construction — external state leaking into a run
_SOCKET_IO = {
    "asyncio.start_server", "asyncio.open_connection",
    "asyncio.start_unix_server", "asyncio.open_unix_connection",
    "socket.socket", "socket.create_connection", "socket.create_server",
    "socket.socketpair",
}

#: module-level random functions backed by the global (unseeded) RNG
_GLOBAL_RANDOM = {
    "random.random", "random.randint", "random.randrange", "random.choice",
    "random.choices", "random.sample", "random.shuffle", "random.uniform",
    "random.gauss", "random.normalvariate", "random.expovariate",
    "random.getrandbits", "random.triangular", "random.betavariate",
    "random.paretovariate", "random.vonmisesvariate", "random.weibullvariate",
}

_CONSTANT_NAME = re.compile(r"^_?[A-Z][A-Z0-9_]*$")
_IGNORE = re.compile(r"#\s*detlint:\s*ignore(?:\[([a-zA-Z0-9_,\- ]+)\])?")


@dataclass(frozen=True)
class Finding:
    """One lint hit: ``path:line:col: RULE message``."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for an Attribute/Name chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _is_float_expr(node: ast.AST) -> bool:
    """Conservatively: does this expression produce a float?"""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    if isinstance(node, ast.Call):
        return _dotted(node.func) == "float"
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, ast.Div):
            return True  # true division is float-valued
        return _is_float_expr(node.left) or _is_float_expr(node.right)
    if isinstance(node, ast.UnaryOp):
        return _is_float_expr(node.operand)
    return False


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, ast.Set):
        return True
    if isinstance(node, ast.Call):
        return _dotted(node.func) in ("set", "frozenset")
    return False


def _is_str_expr(node: ast.AST) -> bool:
    """Provably-str expressions: literals, f-strings, str(...) calls."""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, str)
    if isinstance(node, ast.JoinedStr):
        return True
    if isinstance(node, ast.Call):
        return _dotted(node.func) == "str"
    return False


class _Linter(ast.NodeVisitor):
    def __init__(self, path: str):
        self.path = path
        self.findings: List[Finding] = []
        self._dataclass_depth = 0

    def _flag(self, node: ast.AST, rule: str, message: str) -> None:
        self.findings.append(Finding(self.path, node.lineno, node.col_offset,
                                     rule, message))

    # -- calls: wallclock / random / counters / intern ----------------------
    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted(node.func)
        if dotted:
            if dotted in _WALLCLOCK:
                self._flag(node, "wallclock",
                           f"{dotted}() reads the host clock; simulation "
                           f"state must come from the tick clock or args")
            elif dotted in _WALLCLOCK_SLEEP:
                self._flag(node, "wallclock-sleep",
                           f"{dotted}() waits on (or signals) the host in "
                           f"real time; simulated delays belong on the tick "
                           f"clock — nothing may suppress this")
            elif dotted in _SOCKET_IO:
                self._flag(node, "socket-io",
                           f"{dotted}() opens a real network socket; the "
                           f"simulator models its own wire — nothing may "
                           f"suppress this")
            elif dotted in _GLOBAL_RANDOM:
                self._flag(node, "unseeded-random",
                           f"{dotted}() uses the global unseeded RNG; use "
                           f"a seeded random.Random(seed) instance")
            elif dotted == "random.Random" and not node.args \
                    and not node.keywords:
                self._flag(node, "unseeded-random",
                           "random.Random() without a seed is "
                           "nondeterministic across runs")
            elif dotted.startswith(("numpy.random.", "np.random.")):
                # seeded default_rng(seed)/Generator construction is the
                # blessed pattern; everything else (the legacy global-RNG
                # functions, unseeded default_rng()) is flagged
                seeded_ctor = dotted.endswith((".default_rng", ".Generator",
                                               ".SeedSequence"))
                if not seeded_ctor or not (node.args or node.keywords):
                    self._flag(node, "unseeded-random",
                               f"{dotted}() draws from numpy's global RNG "
                               f"(or is unseeded); use a seeded "
                               f"default_rng(seed)")
            elif dotted in ("sys.getrefcount", "getrefcount"):
                self._flag(node, "refcount-probe",
                           "refcounts shift with closure cells, debuggers "
                           "and C extensions; let an object's lifetime "
                           "follow from the code that owns it, never from "
                           "counting references")
            elif dotted in ("sys.intern", "intern") and node.args:
                if not _is_str_expr(node.args[0]):
                    self._flag(node, "intern-str",
                               "sys.intern raises TypeError on str "
                               "subclasses; normalise with str(...) first")
            elif dotted.endswith((".add", ".add_many")):
                # set.add(x) takes one positional arg and never matches
                # the two-arg (name, amount) shape checked here
                self._check_counter_call(node, dotted)
        self.generic_visit(node)

    def _check_counter_call(self, node: ast.Call, dotted: str) -> None:
        """Flag float amounts flowing into CounterSet.add/add_many."""
        if dotted.endswith(".add"):
            amount = None
            if len(node.args) >= 2:
                amount = node.args[1]
            for kw in node.keywords:
                if kw.arg == "amount":
                    amount = kw.value
            if amount is not None and _is_float_expr(amount):
                self._flag(node, "float-counter",
                           "float amount in counter add; counters are "
                           "exact integer event counts — round explicitly")
        else:  # .add_many — inspect literal (name, amount) pairs
            for arg in node.args:
                if isinstance(arg, (ast.List, ast.Tuple)):
                    for elt in arg.elts:
                        if isinstance(elt, ast.Tuple) and len(elt.elts) == 2 \
                                and _is_float_expr(elt.elts[1]):
                            self._flag(elt, "float-counter",
                                       "float amount in add_many pair")

    # -- refcount probes smuggled in via import -----------------------------
    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "sys":
            for alias in node.names:
                if alias.name == "getrefcount":
                    self._flag(node, "refcount-probe",
                               "importing sys.getrefcount; refcounts are "
                               "interpreter details, never simulation state")
        self.generic_visit(node)

    # -- iteration over unordered sets --------------------------------------
    def visit_For(self, node: ast.For) -> None:
        if _is_set_expr(node.iter):
            self._flag(node, "set-iteration",
                       "iterating a set: order is hash-dependent; wrap in "
                       "sorted(...)")
        self.generic_visit(node)

    def visit_comprehension_iter(self, node: ast.expr) -> None:
        if _is_set_expr(node):
            self._flag(node, "set-iteration",
                       "comprehension over a set: order is hash-dependent; "
                       "wrap in sorted(...)")

    def _visit_comp(self, node) -> None:
        for gen in node.generators:
            self.visit_comprehension_iter(gen.iter)
        self.generic_visit(node)

    visit_ListComp = visit_SetComp = visit_DictComp = _visit_comp
    visit_GeneratorExp = _visit_comp

    # -- class-level mutable attributes -------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        is_dataclass = any(
            (_dotted(d) or "").split(".")[-1] in ("dataclass",)
            or (isinstance(d, ast.Call)
                and (_dotted(d.func) or "").split(".")[-1] == "dataclass")
            for d in node.decorator_list
        )
        if not is_dataclass:
            for stmt in node.body:
                self._check_class_attr(stmt)
        # nested defs still get normal call/loop checks
        self.generic_visit(node)

    def _check_class_attr(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        else:
            return
        names = [t.id for t in targets if isinstance(t, ast.Name)]
        if not names or all(_CONSTANT_NAME.match(n) for n in names):
            return
        mutable = isinstance(value, (ast.List, ast.Dict, ast.Set)) or (
            isinstance(value, ast.Call)
            and _dotted(value.func) in ("list", "dict", "set",
                                        "defaultdict", "OrderedDict",
                                        "collections.defaultdict",
                                        "collections.OrderedDict")
        )
        if mutable:
            self._flag(stmt, "mutable-class-attr",
                       f"class attribute {names[0]!r} is a shared mutable "
                       f"default; assign it in __init__ (or mark the class "
                       f"@dataclass and use field(...))")


def _suppressed(finding: Finding, lines: List[str]) -> bool:
    """Is *finding* silenced by a same-line ``# detlint: ignore`` comment?"""
    if not 1 <= finding.line <= len(lines):
        return False
    m = _IGNORE.search(lines[finding.line - 1])
    if m is None:
        return False
    listed = m.group(1)
    if listed is None:
        return True
    rules = {r.strip() for r in listed.split(",")}
    return finding.rule in rules


def lint_source(code: str, path: str = "<string>") -> List[Finding]:
    """Lint one source string; returns unsuppressed findings in line order."""
    tree = ast.parse(code, filename=path)
    linter = _Linter(path)
    linter.visit(tree)
    lines = code.splitlines()
    return sorted(
        (f for f in linter.findings if not _suppressed(f, lines)),
        key=lambda f: (f.line, f.col, f.rule),
    )


def lint_file(path: Path) -> List[Finding]:
    """Lint one file on disk."""
    return lint_source(path.read_text(encoding="utf-8"), str(path))


def iter_python_files(paths: List[str]) -> List[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: List[Path] = []
    for spec in paths:
        p = Path(spec)
        if p.is_dir():
            out.extend(sorted(p.rglob("*.py")))
        else:
            out.append(p)
    return out

