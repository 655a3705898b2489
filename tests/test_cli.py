"""Tests for the command-line interface."""

import shutil
from pathlib import Path

import pytest

from repro.cli import COMMANDS, _cmd_figure, main
from repro.figures import FIGURES

RUN_LEDGER_FIXTURES = Path(__file__).resolve().parent / "fixtures" / "run_ledger"
FAULTS_ARGV = ["faults", "--fault-plan", "link_loss=0.02", "--fault-seed", "7"]


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in COMMANDS:
            assert name in out

    def test_figure_commands_are_the_figures(self):
        # an entry without a command, or a command without an entry, fails
        assert {name for name, (fn, _) in COMMANDS.items()
                if fn is _cmd_figure} == set(FIGURES)

    def test_no_args_lists(self, capsys):
        assert main([]) == 0
        assert "fig5" in capsys.readouterr().out

    def test_unknown_command_fails(self):
        with pytest.raises(SystemExit):
            main(["not-an-experiment"])

    def test_breakdown(self, capsys):
        assert main(["breakdown", "--mb", "1"]) == 0
        out = capsys.readouterr().out
        assert "message breakdown" in out
        assert "4K cold" in out and "2M cached" in out

    def test_registration(self, capsys):
        assert main(["registration"]) == 0
        out = capsys.readouterr().out
        assert "Registration cost" in out
        # the "down to 1 %" row is present for the largest size
        assert "65536" in out

    def test_fig3(self, capsys):
        assert main(["fig3"]) == 0
        out = capsys.readouterr().out
        assert "Fig 3" in out
        assert "only three times higher" in out

    def test_fig4(self, capsys):
        assert main(["fig4"]) == 0
        assert "offset" in capsys.readouterr().out

    def test_fig5(self, capsys):
        assert main(["fig5"]) == 0
        out = capsys.readouterr().out
        assert "IMB SendRecv" in out
        assert "hugepages" in out

    def test_xeon(self, capsys):
        assert main(["xeon"]) == 0
        assert "driver patch" in capsys.readouterr().out

    def test_abinit(self, capsys):
        assert main(["abinit"]) == 0
        out = capsys.readouterr().out
        assert "allocator speedup" in out

    def test_pingpong(self, capsys):
        assert main(["pingpong"]) == 0
        assert "PingPong" in capsys.readouterr().out

    def test_fig6_class_w(self, capsys):
        assert main(["fig6", "--class", "W"]) == 0
        out = capsys.readouterr().out
        for kernel in ("CG", "EP", "IS", "LU", "MG"):
            assert kernel in out

    def test_tlb_class_w(self, capsys):
        assert main(["tlb", "--class", "W"]) == 0
        assert "TLB misses" in capsys.readouterr().out


class TestFaultPlanFiles:
    def test_json_plan_file_is_accepted(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text('{"link_loss": 0.02, "retry_cnt": 6}')
        assert main(["faults", "--fault-plan", str(plan),
                     "--fault-seed", "7"]) == 0
        out = capsys.readouterr().out
        assert f"fault plan: {plan}" in out
        assert "payload integrity: OK" in out

    def _expect_plan_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "error: --fault-plan:" in capsys.readouterr().err

    def test_malformed_json_file_exits_friendly(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text('{"link_loss": ')
        self._expect_plan_error(["faults", "--fault-plan", str(plan)], capsys)

    def test_unknown_knob_in_file_exits_friendly(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text('{"link_sloth": 0.5}')
        self._expect_plan_error(["faults", "--fault-plan", str(plan)], capsys)

    def test_non_object_json_exits_friendly(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text('[0.5]')
        self._expect_plan_error(["faults", "--fault-plan", str(plan)], capsys)

    def test_missing_file_exits_friendly(self, tmp_path, capsys):
        self._expect_plan_error(
            ["faults", "--fault-plan", str(tmp_path / "absent.json")], capsys)

    def test_inline_spec_still_works(self, capsys):
        assert main(["faults", "--fault-plan", "link_loss=0.02",
                     "--fault-seed", "7"]) == 0
        assert "payload integrity: OK" in capsys.readouterr().out

    def test_permanent_registration_failure_is_a_clean_abort(self, capsys):
        """A registration that fails for good (here the setup slab's)
        ends the faulted run the way an exhausted retry budget does: one
        ``ABORTED`` line and exit 1, no traceback."""
        with pytest.raises(SystemExit) as exc:
            main(["faults", "--fault-plan", "reg_permanent=0.5",
                  "--fault-seed", "1"])
        assert exc.value.code == 1
        out = capsys.readouterr().out
        assert out.splitlines()[-1] == (
            "with faults:     ABORTED (registration of [0x7ffefff9f010+393216] "
            "failed permanently (adapter translation table exhausted))")


class TestCheckpointCLI:
    def test_faults_checkpoint_then_resume_bit_identical(self, tmp_path, capsys):
        ckdir = tmp_path / "ck"
        assert main(["faults", "--fault-plan", "link_loss=0.02",
                     "--fault-seed", "7", "--checkpoint-every", "0",
                     "--checkpoint-dir", str(ckdir)]) == 0
        first = capsys.readouterr().out
        assert (ckdir / "latest.snap").exists()
        assert main(["resume", str(ckdir / "latest.snap")]) == 0
        assert capsys.readouterr().out == first

    def test_fig5_audit_flag(self, capsys):
        assert main(["fig5", "--audit"]) == 0
        captured = capsys.readouterr()
        assert "IMB SendRecv" in captured.out
        assert "clean" in captured.err

    def test_resume_rejects_garbage(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.snap"
        bogus.write_text("not a snapshot")
        with pytest.raises(SystemExit) as exc:
            main(["resume", str(bogus)])
        assert exc.value.code == 2
        assert "error: resume:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [
        ("--hang-timeout", "-1"),
        ("--hang-timeout", "nan"),
        ("--hang-timeout", "0"),
        ("--hang-timeout", "inf"),
        ("--checkpoint-every", "-5"),
    ])
    def test_bad_harness_values_exit_2(self, flag, value, tmp_path,
                                       monkeypatch, capsys):
        """A watchdog timeout that crashes (negative), never fires (nan,
        inf) or silently starts no watchdog (0), and a negative snapshot
        interval, are refused before the run starts."""
        monkeypatch.chdir(tmp_path)  # a run that slips through writes here
        with pytest.raises(SystemExit) as exc:
            main(FAULTS_ARGV + [flag, value])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {flag}: ")
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("snapshot", ["ckpt-0001.snap", "latest.snap"])
    def test_committed_ledger_resumes_byte_identical(self, snapshot, tmp_path,
                                                     monkeypatch, capsys):
        """Run-ledger snapshots written by an earlier build (``faults``
        with FAULTS_ARGV plus ``--checkpoint-every 0 --checkpoint-dir
        ck``; one unit done, then both) still resume to the bytes a
        fresh run prints.  Breaking them needs a deliberate SCHEMA bump."""
        monkeypatch.chdir(tmp_path)
        assert main(FAULTS_ARGV) == 0
        fresh = capsys.readouterr().out
        shutil.copy(RUN_LEDGER_FIXTURES / snapshot, tmp_path / "old.snap")
        assert main(["resume", "old.snap"]) == 0
        assert capsys.readouterr().out == fresh

    def test_resume_rejects_forensic_snapshots(self, tmp_path, capsys):
        from repro.checkpoint import write_snapshot

        path = tmp_path / "post.snap"
        write_snapshot(str(path), {"kind": "cluster", "pending_work": []})
        with pytest.raises(SystemExit) as exc:
            main(["resume", str(path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error: resume:" in err and "not a run ledger" in err


class TestSnapshotCorruption:
    """Corrupt or truncated snapshots must produce a one-line exit-2
    diagnostic on stderr — never a traceback (the crash-recovery path
    routinely meets half-written files)."""

    def _valid_snapshot(self, tmp_path):
        ckdir = tmp_path / "ck"
        assert main(["faults", "--checkpoint-every", "0",
                     "--checkpoint-dir", str(ckdir)]) == 0
        snap = ckdir / "latest.snap"
        assert snap.exists()
        return snap

    def _expect_resume_error(self, snap, capsys, needle):
        with pytest.raises(SystemExit) as exc:
            main(["resume", str(snap)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error: resume:" in err
        assert needle in err
        assert "Traceback" not in err

    def test_truncated_snapshot_exits_2(self, tmp_path, capsys):
        snap = self._valid_snapshot(tmp_path)
        capsys.readouterr()
        data = snap.read_bytes()
        snap.write_bytes(data[:len(data) - len(data) // 3])
        self._expect_resume_error(snap, capsys, "truncated or corrupt")

    def test_bitflipped_body_exits_2(self, tmp_path, capsys):
        snap = self._valid_snapshot(tmp_path)
        capsys.readouterr()
        data = bytearray(snap.read_bytes())
        data[-1] ^= 0xFF
        snap.write_bytes(bytes(data))
        self._expect_resume_error(snap, capsys, "truncated or corrupt")

    def test_checksum_valid_unpicklable_body_exits_2(self, tmp_path, capsys):
        import hashlib
        import json

        from repro.checkpoint import SCHEMA

        # a snapshot whose manifest checks out but whose body is not a
        # pickle (e.g. written by a build whose classes have moved)
        body = b"\x80\x04not really a pickle"
        manifest = {"schema": SCHEMA,
                    "sha256": hashlib.sha256(body).hexdigest(),
                    "payload_bytes": len(body), "meta": {}}
        snap = tmp_path / "odd.snap"
        snap.write_bytes(json.dumps(manifest).encode() + b"\n" + body)
        self._expect_resume_error(snap, capsys, "cannot unpickle")

    def test_missing_snapshot_exits_2(self, tmp_path, capsys):
        self._expect_resume_error(tmp_path / "absent.snap", capsys,
                                  "cannot read snapshot")

    def test_wrong_payload_shape_exits_2(self, tmp_path, capsys):
        from repro.checkpoint import write_snapshot

        snap = tmp_path / "odd.snap"
        write_snapshot(str(snap), {"kind": "run-ledger", "command": "faults",
                                   "argv": "not-a-list", "units": {}})
        self._expect_resume_error(snap, capsys, "argv/unit ledger")


class TestTraceCLI:
    def _load_trace(self, path):
        import json

        with open(path) as fh:
            return json.load(fh)

    def test_trace_command_writes_valid_chrome_json(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        assert main(["trace", "fig5", "--trace-out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "IMB SendRecv" in captured.out
        assert f"trace: wrote {out}" in captured.err
        doc = self._load_trace(out)
        assert doc["traceEvents"]
        for ev in doc["traceEvents"]:
            assert ev["ph"] in ("X", "i", "M")
        # attributed deltas sum exactly to the run's counter totals
        totals = doc["otherData"]["counter_totals"]
        summed = {}
        for ev in doc["traceEvents"]:
            for k, v in ev.get("args", {}).get("counters", {}).items():
                summed[k] = summed.get(k, 0) + v
        assert summed == totals

    def test_trace_flag_prints_phase_table(self, capsys):
        assert main(["fig5", "--trace"]) == 0
        out = capsys.readouterr().out
        assert "(total)" in out and "phase" in out

    def test_trace_out_creates_parent_dirs(self, tmp_path):
        out = tmp_path / "a" / "b" / "t.json"
        assert main(["trace", "fig5", "--trace-out", str(out)]) == 0
        assert out.exists()

    def test_checkpoint_dir_is_created(self, tmp_path):
        ckdir = tmp_path / "deep" / "ck"
        assert main(["faults", "--checkpoint-every", "0",
                     "--checkpoint-dir", str(ckdir)]) == 0
        assert (ckdir / "latest.snap").exists()

    def test_unwritable_trace_out_exits_2(self, tmp_path, capsys):
        # a regular file as a parent path component is unwritable even
        # for root (NotADirectoryError), unlike mode-0 dirs
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        bad = blocker / "sub" / "t.json"
        with pytest.raises(SystemExit) as exc:
            main(["trace", "fig5", "--trace-out", str(bad)])
        assert exc.value.code == 2
        assert "--trace-out" in capsys.readouterr().err

    def test_unwritable_checkpoint_dir_exits_2(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        bad = blocker / "sub" / "ck"
        with pytest.raises(SystemExit) as exc:
            main(["fig5", "--checkpoint-every", "0",
                  "--checkpoint-dir", str(bad)])
        assert exc.value.code == 2
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_traced_run_resumes_byte_identical(self, tmp_path, capsys):
        ckdir = tmp_path / "ck"
        out = tmp_path / "t.json"
        assert main(["trace", "faults", "--trace-out", str(out),
                     "--fault-seed", "7", "--checkpoint-every", "0",
                     "--checkpoint-dir", str(ckdir)]) == 0
        first_stdout = capsys.readouterr().out
        first_trace = out.read_bytes()
        # resume replays the snapshot's own argv, rewriting the same
        # trace file: both it and stdout must come out byte-identical
        assert main(["resume", str(ckdir / "latest.snap")]) == 0
        assert capsys.readouterr().out == first_stdout
        assert out.read_bytes() == first_trace


# --- the exit-code contract ------------------------------------------------
#
# 0 = clean run, 2 = bad spec / failed preflight, 3 = sanitizer
# violation.  One table, every entry exercised through main() the same
# way, so a driver can't quietly drift to its own convention.

def _clean_fig5(tmp_path):
    return ["fig5"]


def _clean_fig6(tmp_path):
    return ["fig6", "--class", "W"]


def _clean_nas(tmp_path):
    return ["sanitize", "nas", "--class", "W"]


def _clean_faults(tmp_path):
    return ["faults", "--fault-plan", "link_loss=0.02", "--fault-seed", "7"]


def _clean_sanitize(tmp_path):
    return ["sanitize", "faults"]


def _clean_resume(tmp_path):
    ckdir = tmp_path / "ck"
    assert main(["faults", "--checkpoint-every", "0",
                 "--checkpoint-dir", str(ckdir)]) == 0
    return ["resume", str(ckdir / "latest.snap")]


def _clean_batch(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text('[{"command": "fig4"}]')
    return ["batch", str(spec), "--out-dir", str(tmp_path / "out"),
            "--jobs", "1"]


def _bad_fig5(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    return ["fig5", "--checkpoint-every", "0",
            "--checkpoint-dir", str(blocker / "ck")]


def _bad_fig6(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    return ["fig6", "--class", "W", "--trace-out",
            str(blocker / "t.json")]


def _bad_nas(tmp_path):
    return ["sanitize", "nas", "--sanitize", "bogus-group"]


def _bad_faults(tmp_path):
    return ["faults", "--fault-plan", "link_sloth=0.5"]


def _bad_sanitize(tmp_path):
    return ["sanitize", "faults", "--sanitize", "bogus-group"]


def _bad_resume(tmp_path):
    snap = tmp_path / "bogus.snap"
    snap.write_text("not a snapshot")
    return ["resume", str(snap)]


def _bad_batch(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text('[{"command": "no-such-driver"}]')
    return ["batch", str(spec), "--out-dir", str(tmp_path / "out")]


def _clean_lint(tmp_path):
    mod = tmp_path / "spotless.py"
    mod.write_text("def double(ticks):\n    return ticks * 2\n")
    return ["lint", str(mod)]


def _bad_lint(tmp_path):
    return ["lint", str(tmp_path / "no-such-tree")]


_CONTRACT = [
    ("fig5", _clean_fig5, _bad_fig5),
    ("fig6", _clean_fig6, _bad_fig6),
    ("nas", _clean_nas, _bad_nas),
    ("faults", _clean_faults, _bad_faults),
    ("sanitize", _clean_sanitize, _bad_sanitize),
    ("resume", _clean_resume, _bad_resume),
    ("batch", _clean_batch, _bad_batch),
    ("lint", _clean_lint, _bad_lint),
]


class TestExitCodeContract:
    @pytest.mark.parametrize("name,clean,_bad", _CONTRACT,
                             ids=[c[0] for c in _CONTRACT])
    def test_clean_run_exits_0(self, name, clean, _bad, tmp_path, capsys):
        assert main(clean(tmp_path)) == 0

    @pytest.mark.parametrize("name,_clean,bad", _CONTRACT,
                             ids=[c[0] for c in _CONTRACT])
    def test_bad_spec_exits_2(self, name, _clean, bad, tmp_path, capsys):
        argv = bad(tmp_path)
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("target", ["fig5", "fig6", "nas", "faults"])
    def test_sanitizer_violation_exits_3(self, target, monkeypatch, capsys):
        from repro import cli, sanitize

        resolved = "fig6" if target == "nas" else target

        def violate(args):
            raise sanitize.SanitizerError(
                "heap.use-after-free", "synthetic violation for the "
                "exit-code contract", address=0x1000, tick=1)

        monkeypatch.setitem(cli.COMMANDS, resolved,
                            (violate, cli.COMMANDS[resolved][1]))
        with pytest.raises(SystemExit) as exc:
            main(["sanitize", target])
        assert exc.value.code == 3
        err = capsys.readouterr().err
        assert "sanitize[heap.use-after-free]" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("traced", [False, True],
                             ids=["plain", "trace-out"])
    def test_snapshot_violation_exits_3(self, traced, tmp_path, monkeypatch,
                                        capsys):
        """A broken invariant in a finished unit's cluster, found by the
        ``--audit`` sweep, takes the sanitizer's exit: code 3, a one-line
        report, and the trace still written, ending in the violation."""
        import json

        from repro.workloads.imb import SendRecvBenchmark

        run = SendRecvBenchmark.run

        def run_then_leak_a_slot(self, *args, **kwargs):
            result = run(self, *args, **kwargs)
            qp = next(iter(self.last_cluster.nodes[0].hca._qps.values()))
            qp.wr_slots._in_use = qp.max_send_wr + 1
            return result

        monkeypatch.setattr(SendRecvBenchmark, "run", run_then_leak_a_slot)
        out = tmp_path / "t.json"
        argv = ["fig5", "--audit"] + (["--trace-out", str(out)] if traced
                                      else [])
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 3
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error:")]
        assert len(errors) == 1
        assert errors[0].startswith("error: sanitize[qp.balance]: ")
        if traced:
            events = json.loads(out.read_text())["traceEvents"]
            assert events[-1]["name"] == "sanitize.violation"
            assert events[-1]["args"]["rule"] == "qp.balance"

    def test_lint_findings_exit_1(self, tmp_path, capsys):
        mod = tmp_path / "wallclock.py"
        mod.write_text("import time\n\ndef now():\n    return time.time()\n")
        with pytest.raises(SystemExit) as exc:
            main(["lint", str(mod)])
        assert exc.value.code == 1
        assert "wallclock" in capsys.readouterr().out
