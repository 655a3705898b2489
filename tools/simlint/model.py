"""Whole-program model: modules, classes, attributes and a call graph.

The three analysis passes (:mod:`simlint.taint`,
:mod:`simlint.ownership`, :mod:`simlint.counterkeys`) all need the same
substrate — every module of one package parsed, every class's method
table and inferable attribute types, every function under a stable
qualified name, and a best-effort resolution of
call sites to project functions.  :class:`Project` builds all of it in
one pass over the tree, pure stdlib.

Resolution is deliberately *best effort*: Python's dynamism makes a
sound call graph impossible without running the program, so the model
resolves the shapes that actually occur in this codebase —

- ``module_alias.func(...)`` / ``from m import func; func(...)`` via the
  per-module import table,
- ``self.method(...)`` via the enclosing class (and project-local bases),
- ``self.attr.method(...)`` via attribute types inferred from
  ``__init__`` (``self.x = param`` with an annotated param, or
  ``self.x = ClassName(...)``),
- ``param.method(...)`` via parameter annotations.

Anything else resolves to nothing, and passes treat an unresolved call
as having no project effect.  That trades false negatives for a near-
zero false-positive rate, which is what keeps a lint gate tolerable.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from simlint.perline import _dotted as dotted  # noqa: F401  (re-exported)


@dataclass
class FunctionInfo:
    """One function or method, under its project-qualified name."""

    qualname: str               #: e.g. ``repro.ib.hca.HCA.post_send``
    module: str                 #: defining module, e.g. ``repro.ib.hca``
    cls: Optional[str]          #: class qualname for methods, else None
    name: str                   #: bare name
    node: ast.AST               #: the FunctionDef / AsyncFunctionDef
    path: str                   #: source file
    params: List[str] = field(default_factory=list)
    annotations: Dict[str, str] = field(default_factory=dict)


@dataclass
class ClassInfo:
    """One class: attribute types and method table."""

    qualname: str
    module: str
    name: str
    node: ast.ClassDef
    path: str
    bases: List[str] = field(default_factory=list)
    #: attribute name -> class qualname, where inferable from __init__
    attr_types: Dict[str, str] = field(default_factory=dict)
    #: method name -> function qualname
    methods: Dict[str, str] = field(default_factory=dict)


def _ann_to_dotted(node: Optional[ast.AST]) -> Optional[str]:
    """A dotted type name out of an annotation expression, if simple.

    Handles ``C``, ``m.C``, string annotations, and unwraps one level of
    ``Optional[...]``/``typing.Optional[...]``.
    """
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.strip().split("[")[0] or None
    if isinstance(node, (ast.Name, ast.Attribute)):
        return dotted(node)
    if isinstance(node, ast.Subscript):
        base = dotted(node.value)
        if base and base.split(".")[-1] == "Optional":
            return _ann_to_dotted(node.slice)
    return None


class Project:
    """Parsed model of one package tree (``root`` is the package dir)."""

    def __init__(self, root: Path, package: Optional[str] = None):
        self.root = Path(root)
        self.package = package if package is not None else self.root.name
        self.modules: Dict[str, ast.Module] = {}
        self.module_paths: Dict[str, str] = {}
        #: module -> local name -> fully qualified target
        self.imports: Dict[str, Dict[str, str]] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        #: caller qualname -> [(callee qualname | None, Call node)]
        self.calls: Dict[str, List[Tuple[Optional[str], ast.Call]]] = {}
        self._load()
        self._collect()
        self._resolve_all_calls()

    # -- loading ------------------------------------------------------------
    def _module_name(self, path: Path) -> str:
        rel = path.relative_to(self.root)
        parts = list(rel.parts)
        parts[-1] = parts[-1][:-3]  # strip .py
        if parts[-1] == "__init__":
            parts.pop()
        return ".".join([self.package] + parts)

    def _load(self) -> None:
        for path in sorted(self.root.rglob("*.py")):
            name = self._module_name(path)
            tree = ast.parse(path.read_text(encoding="utf-8"),
                             filename=str(path))
            self.modules[name] = tree
            self.module_paths[name] = str(path)

    # -- symbol collection --------------------------------------------------
    def _collect_imports(self, module: str, tree: ast.Module) -> None:
        table: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        table[alias.asname] = alias.name
                    else:
                        head = alias.name.split(".")[0]
                        table.setdefault(head, head)
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    parts = module.split(".")
                    # modules are files, so one level strips the module
                    # name itself; packages (__init__) are one shorter,
                    # an approximation that is right for this tree
                    base_parts = parts[: max(0, len(parts) - node.level)]
                    if node.module:
                        base_parts = base_parts + node.module.split(".")
                    base = ".".join(base_parts)
                else:
                    base = node.module or ""
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    table[local] = f"{base}.{alias.name}" if base else alias.name
        self.imports[module] = table

    def _collect_class(self, module: str, path: str, node: ast.ClassDef) -> None:
        qual = f"{module}.{node.name}"
        info = ClassInfo(qualname=qual, module=module, name=node.name,
                         node=node, path=path,
                         bases=[d for d in (dotted(b) for b in node.bases) if d])
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fq = f"{qual}.{stmt.name}"
                info.methods[stmt.name] = fq
                self._collect_function(module, path, stmt, cls=qual)
                is_prop = any((dotted(d) or "").split(".")[-1] == "property"
                              for d in stmt.decorator_list)
                if not is_prop:
                    self._collect_self_attrs(info, stmt)
        self.classes[qual] = info

    def _collect_self_attrs(self, info: ClassInfo,
                            fn: ast.AST) -> None:
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign):
                for t in node.targets:
                    self._record_self_attr(info, t, node)
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                self._record_self_attr(info, node.target, node)

    def _record_self_attr(self, info: ClassInfo, target: ast.expr,
                          stmt: ast.AST) -> None:
        if not (isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"):
            return
        # best-effort attribute typing out of __init__-style assignments
        value = getattr(stmt, "value", None)
        if isinstance(value, ast.Call):
            ctor = dotted(value.func)
            if ctor:
                info.attr_types.setdefault(target.attr, ctor)
        elif isinstance(value, ast.Name):
            # self.x = param — typed when the param carries an annotation
            fn_qual = info.methods.get("__init__")
            fn = self.functions.get(fn_qual) if fn_qual else None
            if fn is not None:
                ann = fn.annotations.get(value.id)
                if ann:
                    info.attr_types.setdefault(target.attr, ann)

    def _collect_function(self, module: str, path: str, node: ast.AST,
                          cls: Optional[str] = None) -> None:
        name = node.name  # type: ignore[attr-defined]
        qual = f"{cls}.{name}" if cls else f"{module}.{name}"
        args = node.args  # type: ignore[attr-defined]
        params = [a.arg for a in args.posonlyargs + args.args]
        annotations = {
            a.arg: d
            for a in args.posonlyargs + args.args + args.kwonlyargs
            for d in (_ann_to_dotted(a.annotation),)
            if d
        }
        self.functions[qual] = FunctionInfo(
            qualname=qual, module=module, cls=cls, name=name, node=node,
            path=path, params=params, annotations=annotations)

    def _collect(self) -> None:
        for module, tree in self.modules.items():
            self._collect_imports(module, tree)
            path = self.module_paths[module]
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    self._collect_function(module, path, node)
                elif isinstance(node, ast.ClassDef):
                    self._collect_class(module, path, node)

    # -- call resolution ----------------------------------------------------
    def resolve_type(self, module: str, type_name: Optional[str]) -> Optional[str]:
        """Resolve a dotted type name (as written in *module*) to a
        project class qualname, or None."""
        if not type_name:
            return None
        parts = type_name.split(".")
        table = self.imports.get(module, {})
        # name defined or imported in this module
        candidates = [f"{module}.{type_name}"]
        head_target = table.get(parts[0])
        if head_target:
            candidates.append(".".join([head_target] + parts[1:]))
        candidates.append(type_name)
        for cand in candidates:
            if cand in self.classes:
                return cand
        return None

    def lookup_method(self, cls_qual: Optional[str],
                      method: str) -> Optional[str]:
        """Find *method* on the class or its project-local bases."""
        seen: Set[str] = set()
        while cls_qual and cls_qual in self.classes and cls_qual not in seen:
            seen.add(cls_qual)
            info = self.classes[cls_qual]
            if method in info.methods:
                return info.methods[method]
            next_qual = None
            for base in info.bases:
                resolved = self.resolve_type(info.module, base)
                if resolved:
                    next_qual = resolved
                    break
            cls_qual = next_qual
        return None

    def _attr_chain_type(self, module: str, cls_qual: Optional[str],
                         parts: List[str]) -> Optional[str]:
        for part in parts:
            if not cls_qual or cls_qual not in self.classes:
                return None
            ann = self.classes[cls_qual].attr_types.get(part)
            cls_qual = self.resolve_type(self.classes[cls_qual].module, ann)
        return cls_qual

    def resolve_call(self, fn: FunctionInfo,
                     call: ast.Call) -> Optional[str]:
        """The project function this call lands in, or None."""
        d = dotted(call.func)
        if d is None:
            return None
        parts = d.split(".")
        table = self.imports.get(fn.module, {})

        def as_callable(qual: str) -> Optional[str]:
            if qual in self.functions:
                return qual
            if qual in self.classes:
                return self.lookup_method(qual, "__init__")
            return None

        if parts[0] == "self" and fn.cls:
            if len(parts) == 2:
                return self.lookup_method(fn.cls, parts[1])
            recv = self._attr_chain_type(fn.module, fn.cls, parts[1:-1])
            return self.lookup_method(recv, parts[-1]) if recv else None

        if len(parts) == 1:
            hit = as_callable(f"{fn.module}.{parts[0]}")
            if hit:
                return hit
            target = table.get(parts[0])
            return as_callable(target) if target else None

        target = table.get(parts[0])
        if target:
            hit = as_callable(".".join([target] + parts[1:]))
            if hit:
                return hit
            # module.Class.method / imported-class classmethod
            owner = ".".join([target] + parts[1:-1])
            if owner in self.classes:
                return self.lookup_method(owner, parts[-1])
            return None

        # annotated parameter (or annotated local attr chain on it)
        ann = fn.annotations.get(parts[0])
        recv = self.resolve_type(fn.module, ann)
        if recv and len(parts) > 2:
            recv = self._attr_chain_type(fn.module, recv, parts[1:-1])
        return self.lookup_method(recv, parts[-1]) if recv else None

    def _resolve_all_calls(self) -> None:
        for qual, fn in self.functions.items():
            sites: List[Tuple[Optional[str], ast.Call]] = []
            for node in ast.walk(fn.node):
                if isinstance(node, ast.Call):
                    sites.append((self.resolve_call(fn, node), node))
            self.calls[qual] = sites

    # -- conveniences -------------------------------------------------------
    def callees(self, qual: str) -> Set[str]:
        return {c for c, _node in self.calls.get(qual, []) if c}

    def function_symbol(self, fn: FunctionInfo) -> str:
        return fn.qualname
