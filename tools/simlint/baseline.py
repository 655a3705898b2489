"""Whole-program findings and the committed baseline/allowlist ledger.

Per-line rules keep their inline ``# detlint: ignore[...]`` escape
hatch; the whole-program passes use a *ledger* instead
(``tools/simlint/baseline.json``), because their findings attach to
symbols (a class attribute, a function) rather than single lines, and
because a reviewed, committed list of justified exceptions is the
auditable artifact a lint gate needs.

Every entry must carry a non-empty ``reason`` — the justification lives
inline in the ledger, next to the suppression it excuses.  An entry
matches a finding by ``(pass, symbol)``.  Entries that match nothing
are reported as *stale* so the ledger can only shrink as defects are
fixed; staleness is a warning, not a gate failure, so a fix and its
ledger cleanup need not land in the same commit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple


@dataclass(frozen=True)
class PassFinding:
    """One whole-program finding, attached to a project symbol."""

    pass_id: str    #: e.g. ``ownership-pairing``
    path: str
    line: int
    symbol: str     #: e.g. ``repro.ib.hca.HCA._send_completed``
    message: str

    def render(self) -> str:
        return (f"{self.path}:{self.line}: {self.pass_id} "
                f"[{self.symbol}] {self.message}")

    def to_json(self) -> Dict[str, object]:
        return {
            "pass": self.pass_id,
            "path": self.path,
            "line": self.line,
            "symbol": self.symbol,
            "message": self.message,
        }


class BaselineError(Exception):
    """The ledger itself is malformed (a config error, exit code 2)."""


@dataclass(frozen=True)
class BaselineEntry:
    pass_id: str
    symbol: str
    reason: str


class Baseline:
    """The parsed ledger plus match bookkeeping."""

    def __init__(self, entries: List[BaselineEntry], path: Optional[str] = None):
        self.entries = entries
        self.path = path
        self._used: Dict[Tuple[str, str], bool] = {
            (e.pass_id, e.symbol): False for e in entries
        }

    @classmethod
    def load(cls, path: Path) -> "Baseline":
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise BaselineError(f"cannot read baseline {path}: {exc}") from exc
        raw = payload.get("entries")
        if not isinstance(raw, list):
            raise BaselineError(f"{path}: expected a top-level 'entries' list")
        entries: List[BaselineEntry] = []
        for i, item in enumerate(raw):
            if not isinstance(item, dict):
                raise BaselineError(f"{path}: entry {i} is not an object")
            pass_id = item.get("pass")
            symbol = item.get("symbol")
            reason = item.get("reason")
            if not pass_id or not symbol:
                raise BaselineError(
                    f"{path}: entry {i} needs both 'pass' and 'symbol'")
            if not isinstance(reason, str) or not reason.strip():
                raise BaselineError(
                    f"{path}: entry {i} ({pass_id} {symbol}) has no "
                    f"justification; every ledger entry must carry a "
                    f"non-empty 'reason'")
            entries.append(BaselineEntry(pass_id=str(pass_id),
                                         symbol=str(symbol),
                                         reason=reason.strip()))
        return cls(entries, path=str(path))

    @classmethod
    def empty(cls) -> "Baseline":
        return cls([])

    def suppresses(self, finding: PassFinding) -> bool:
        key = (finding.pass_id, finding.symbol)
        if key in self._used:
            self._used[key] = True
            return True
        return False

    def stale_entries(self) -> List[BaselineEntry]:
        """Entries that matched no finding in this run."""
        return [e for e in self.entries
                if not self._used[(e.pass_id, e.symbol)]]


def apply_baseline(findings: List[PassFinding],
                   baseline: Baseline) -> List[PassFinding]:
    """Findings that survive the ledger, in stable order."""
    return [f for f in findings if not baseline.suppresses(f)]
