"""simlint: whole-program pass detection on planted fixture packages,
baseline-ledger semantics, CLI exit-code contract, and the assertion
that the shipped ``src/repro`` tree lints clean against the committed
ledger."""

import json
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))

from simlint import counterkeys, ownership, taint  # noqa: E402
from simlint.baseline import (Baseline, BaselineError,  # noqa: E402
                              PassFinding, apply_baseline)
from simlint.cli import ANALYSES, main  # noqa: E402
from simlint.model import Project  # noqa: E402

FIXTURES = REPO / "tests" / "fixtures" / "simlint"
BADPKG = FIXTURES / "badpkg"
REGISTRY = FIXTURES / "registry.json"


def _project():
    return Project(BADPKG)


def _symbols(findings):
    return {f.symbol for f in findings}


class TestTaintPass:
    def test_host_value_reaching_sim_boundary_flagged(self):
        findings = taint.run(_project())
        assert "badpkg.tainted.boot" in _symbols(findings)

    def test_clean_module_not_flagged(self):
        findings = taint.run(_project())
        assert not any(f.symbol.startswith("badpkg.metrics")
                       for f in findings)


class TestOwnershipPass:
    def _findings(self):
        return ownership.run(_project())

    def test_early_return_without_release_flagged(self):
        assert ("badpkg.unbalanced.forgets_on_error"
                in _symbols(self._findings()))

    def test_leaked_pin_flagged(self):
        assert ("badpkg.unbalanced.PinTable.borrow"
                in _symbols(self._findings()))

    def test_balanced_pair_clean(self):
        assert ("badpkg.unbalanced.balanced"
                not in _symbols(self._findings()))


class TestCounterKeysPass:
    def _findings(self):
        registry = counterkeys.load_registry(REGISTRY)
        return counterkeys.run(_project(), registry)

    def test_near_miss_reported_as_probable_typo(self):
        typo = [f for f in self._findings() if "fx.tocks" in f.symbol]
        assert typo and "fx.ticks" in typo[0].message

    def test_unknown_key_reported_plainly(self):
        unknown = [f for f in self._findings()
                   if "fx.unheard_of" in f.symbol]
        assert unknown and "fx.ticks" not in unknown[0].message

    def test_registered_key_clean(self):
        assert not any(f.symbol.endswith("fx.ticks")
                       for f in self._findings())


class TestBaselineLedger:
    def _finding(self):
        return PassFinding(pass_id="host-taint", path="x.py", line=1,
                           symbol="pkg.mod.fn", message="m")

    def test_matching_entry_suppresses(self, tmp_path):
        ledger = tmp_path / "baseline.json"
        ledger.write_text(json.dumps({"entries": [
            {"pass": "host-taint", "symbol": "pkg.mod.fn",
             "reason": "reviewed: value is a config constant"}]}))
        baseline = Baseline.load(ledger)
        assert apply_baseline([self._finding()], baseline) == []
        assert baseline.stale_entries() == []

    def test_unmatched_entry_is_stale_not_fatal(self, tmp_path):
        ledger = tmp_path / "baseline.json"
        ledger.write_text(json.dumps({"entries": [
            {"pass": "host-taint", "symbol": "pkg.gone.fn",
             "reason": "fixed long ago"}]}))
        baseline = Baseline.load(ledger)
        assert apply_baseline([self._finding()], baseline) == [self._finding()]
        assert [e.symbol for e in baseline.stale_entries()] == ["pkg.gone.fn"]

    def test_entry_without_reason_rejected(self, tmp_path):
        ledger = tmp_path / "baseline.json"
        ledger.write_text(json.dumps({"entries": [
            {"pass": "host-taint", "symbol": "pkg.mod.fn", "reason": "  "}]}))
        with pytest.raises(BaselineError, match="justification"):
            Baseline.load(ledger)

    def test_every_committed_entry_is_justified(self):
        # the ledger is empty: nothing in src/repro needs a suppression
        baseline = Baseline.load(REPO / "tools" / "simlint" / "baseline.json")
        assert all(e.reason.strip() for e in baseline.entries)


class TestCliContract:
    def test_shipped_tree_lints_clean(self, capsys):
        assert main([str(REPO / "src" / "repro")]) == 0
        assert "stale baseline entry" not in capsys.readouterr().err

    def test_fixture_package_trips_every_pass(self, capsys):
        rc = main([str(BADPKG), "--no-baseline",
                   "--registry", str(REGISTRY),
                   "--format", "json"])
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        checks = {f["check"] for f in payload["findings"]}
        assert {"host-taint", "ownership-pairing", "counter-keys"} <= checks
        assert payload["counts"]["passes"] == len(payload["findings"])

    def test_baseline_silences_fixture_findings(self, tmp_path, capsys):
        rc = main([str(BADPKG), "--no-baseline",
                   "--registry", str(REGISTRY), "--format", "json"])
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        ledger = tmp_path / "baseline.json"
        ledger.write_text(json.dumps({"entries": [
            {"pass": f["check"], "symbol": f["symbol"],
             "reason": "fixture: planted defect, suppressed for this test"}
            for f in payload["findings"]]}))
        rc = main([str(BADPKG), "--baseline", str(ledger),
                   "--registry", str(REGISTRY)])
        assert rc == 0

    def test_json_findings_carry_location_fields(self, capsys):
        main([str(BADPKG), "--no-baseline", "--only", "host-taint",
              "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"]
        for f in payload["findings"]:
            assert {"check", "path", "line", "symbol",
                    "message"} <= set(f)

    def test_unknown_analysis_id_exits_2(self, capsys):
        assert main([str(BADPKG), "--only", "no-such-pass"]) == 2
        assert "unknown analysis" in capsys.readouterr().err

    def test_missing_path_exits_2(self, capsys):
        assert main(["/no/such/tree"]) == 2

    def test_malformed_baseline_exits_2(self, tmp_path, capsys):
        ledger = tmp_path / "baseline.json"
        ledger.write_text(json.dumps({"entries": [
            {"pass": "host-taint", "symbol": "x"}]}))
        assert main([str(BADPKG), "--baseline", str(ledger)]) == 2

    def test_syntax_error_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "broken.py"
        bad.write_text("def oops(:\n")
        assert main([str(bad)]) == 2
        assert "syntax error" in capsys.readouterr().err

    def test_list_rules_names_every_analysis(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for analysis in ANALYSES[1:]:
            assert analysis in out
        assert "wallclock" in out

    def test_perline_rules_still_run_under_simlint(self, tmp_path, capsys):
        mod = tmp_path / "wall.py"
        mod.write_text("import time\nt = time.time()\n")
        assert main([str(mod), "--no-baseline"]) == 1
        assert "wallclock" in capsys.readouterr().out

    def test_update_counter_registry_regenerates(self, tmp_path, capsys):
        registry = tmp_path / "registry.json"
        rc = main([str(BADPKG), "--no-baseline",
                   "--only", "counter-keys",
                   "--registry", str(registry),
                   "--update-counter-registry"])
        payload = json.loads(registry.read_text())
        assert "fx.ticks" in payload["keys"]
        assert "fx.tocks" in payload["keys"]
        assert rc == 0  # a freshly generated registry matches the tree
