"""Command line front end: per-line rules + whole-program passes.

``python tools/simlint [paths...]`` runs everything detlint ran (the
per-line determinism rules, same suppression syntax) *plus* the three
whole-program passes, against ``src/repro`` by default.

Exit codes — same contract as detlint and ``repro lint``:

- ``0`` — clean (after inline suppressions and the baseline ledger),
- ``1`` — findings,
- ``2`` — bad invocation (unknown path, malformed baseline).

``--format json`` emits one machine-readable object (findings, stale
ledger entries, counts) for the CI artifact; text format prints one
finding per line.  ``--update-counter-registry`` regenerates
``counter_registry.json`` from the tree and then lints against it.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

from simlint import counterkeys, ownership, perline, taint
from simlint.baseline import (Baseline, BaselineError, PassFinding,
                              apply_baseline)
from simlint.model import Project

_HERE = Path(__file__).resolve().parent

#: analysis ids accepted by ``--only`` (``perline`` = the detlint rules)
ANALYSES = ("perline", taint.PASS_ID, ownership.PASS_ID,
            counterkeys.PASS_ID)


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="simlint",
        description="determinism lint: per-line rules + whole-program passes")
    p.add_argument("paths", nargs="*", default=["src/repro"],
                   help="files or package directories (default: src/repro)")
    p.add_argument("--format", choices=("text", "json"), default="text",
                   dest="fmt", help="output format (default: text)")
    p.add_argument("--list-rules", action="store_true",
                   help="list per-line rules and whole-program passes")
    p.add_argument("--only", default=None, metavar="IDS",
                   help="comma-separated analysis ids to run "
                        f"(of: {', '.join(ANALYSES)})")
    p.add_argument("--baseline", default=None, metavar="PATH",
                   help="baseline ledger (default: tools/simlint/"
                        "baseline.json when present)")
    p.add_argument("--no-baseline", action="store_true",
                   help="ignore the baseline ledger")
    p.add_argument("--registry", default=None, metavar="PATH",
                   help="counter-key registry (default: tools/simlint/"
                        "counter_registry.json)")
    p.add_argument("--update-counter-registry", action="store_true",
                   help="regenerate the counter-key registry from the "
                        "tree before linting")
    return p


def _list_rules() -> str:
    lines = ["per-line rules:"]
    for rule_id in sorted(perline.RULES):
        lines.append(f"  {rule_id}: {perline.RULES[rule_id]}")
    lines.append("whole-program passes:")
    for mod in (taint, ownership, counterkeys):
        doc = (mod.__doc__ or "").strip().splitlines()[0]
        lines.append(f"  {mod.PASS_ID}: {doc}")
    return "\n".join(lines)


def run_passes(project: Project, only: List[str],
               registry_path: Path,
               update_registry: bool) -> List[PassFinding]:
    findings: List[PassFinding] = []
    if taint.PASS_ID in only:
        findings += taint.run(project)
    if ownership.PASS_ID in only:
        findings += ownership.run(project)
    if counterkeys.PASS_ID in only:
        if update_registry:
            registry: Optional[Dict[str, List[str]]] = \
                counterkeys.write_registry(project, registry_path)
        else:
            registry = counterkeys.load_registry(registry_path)
        findings += counterkeys.run(project, registry)
    return findings


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports its own message
        code = exc.code
        return code if isinstance(code, int) else 2

    if args.list_rules:
        print(_list_rules())
        return 0

    only = list(ANALYSES)
    if args.only:
        only = [s.strip() for s in args.only.split(",") if s.strip()]
        unknown = [s for s in only if s not in ANALYSES]
        if unknown:
            print(f"simlint: unknown analysis id(s): {', '.join(unknown)}",
                  file=sys.stderr)
            return 2

    baseline = Baseline.empty()
    if not args.no_baseline:
        baseline_path = Path(args.baseline) if args.baseline \
            else _HERE / "baseline.json"
        if args.baseline or baseline_path.exists():
            try:
                baseline = Baseline.load(baseline_path)
            except BaselineError as exc:
                print(f"simlint: {exc}", file=sys.stderr)
                return 2

    registry_path = Path(args.registry) if args.registry \
        else _HERE / counterkeys.REGISTRY_FILE

    perline_findings: List[perline.Finding] = []
    pass_findings: List[PassFinding] = []
    for raw in args.paths:
        path = Path(raw)
        if not path.exists():
            print(f"simlint: no such path: {raw}", file=sys.stderr)
            return 2
        try:
            if "perline" in only:
                for f in perline.iter_python_files([str(path)]):
                    perline_findings.extend(perline.lint_file(f))
            if (path.is_dir() and (path / "__init__.py").exists()
                    and only != ["perline"]):
                pass_findings.extend(run_passes(
                    Project(path), only, registry_path,
                    args.update_counter_registry))
        except SyntaxError as exc:
            print(f"simlint: {raw}: syntax error: {exc}", file=sys.stderr)
            return 2

    pass_findings = apply_baseline(pass_findings, baseline)
    stale = baseline.stale_entries()

    if args.fmt == "json":
        payload = {
            "findings": (
                [{"check": f.rule, "path": f.path, "line": f.line,
                  "col": f.col, "message": f.message}
                 for f in perline_findings]
                + [dict(f.to_json(), check=f.pass_id)
                   for f in pass_findings]),
            "stale_baseline_entries": [
                {"pass": e.pass_id, "symbol": e.symbol, "reason": e.reason}
                for e in stale],
            "counts": {
                "perline": len(perline_findings),
                "passes": len(pass_findings),
            },
        }
        print(json.dumps(payload, indent=2))
    else:
        for f in perline_findings:
            print(f.render())
        for pf in pass_findings:
            print(pf.render())
        for e in stale:
            print(f"simlint: warning: stale baseline entry "
                  f"({e.pass_id} {e.symbol}) matched nothing — remove it",
                  file=sys.stderr)

    return 1 if (perline_findings or pass_findings) else 0
