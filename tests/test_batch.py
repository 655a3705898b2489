"""Tests for the crash-tolerant batch runner (``repro batch``).

Unit layers (spec parsing, journal replay, chaos decisions, the memo
cache) are tested in-process; the supervision/recovery semantics are
tested end-to-end through real worker processes — including the
acceptance property that a chaos-interrupted batch produces results
byte-identical to an uninterrupted run of the same specfile.
"""

import io
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.batch import (
    BatchError,
    BatchSupervisor,
    ChaosPlan,
    JobSpec,
    JournalError,
    MemoCache,
    SpecError,
    fold_jobs,
    job_key,
    load_specfile,
    parse_chaos,
    read_journal,
)
from repro.batch import journal as journal_mod
from repro.batch import worker
from repro.cli import main
from repro.util import atomic_write

REPO = Path(__file__).resolve().parent.parent


# --- repro.util.atomic_write ----------------------------------------------


class TestAtomicWrite:
    def test_writes_bytes_and_text(self, tmp_path):
        p = tmp_path / "a.bin"
        atomic_write(str(p), b"\x00\x01")
        assert p.read_bytes() == b"\x00\x01"
        atomic_write(str(p), "text\n")
        assert p.read_text() == "text\n"

    def test_creates_parent_dirs(self, tmp_path):
        p = tmp_path / "deep" / "er" / "f.txt"
        atomic_write(str(p), "x")
        assert p.read_text() == "x"

    def test_no_temp_litter_on_success(self, tmp_path):
        atomic_write(str(tmp_path / "f.txt"), "x", prefix=".tmp-")
        assert [p.name for p in tmp_path.iterdir()] == ["f.txt"]

    def test_replaces_existing_content_atomically(self, tmp_path):
        p = tmp_path / "f.txt"
        p.write_text("old")
        atomic_write(str(p), "new")
        assert p.read_text() == "new"


# --- specfile parsing ------------------------------------------------------


class TestSpecfile:
    def _load(self, tmp_path, doc):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        return load_specfile(str(path))

    def test_list_form(self, tmp_path):
        specs = self._load(tmp_path, [
            {"command": "fig4"},
            {"id": "f7", "command": "faults",
             "args": ["--fault-seed", "7"], "timeout": 30},
        ])
        assert [s.id for s in specs] == ["job-000-fig4", "f7"]
        assert specs[1].argv == ["faults", "--fault-seed", "7"]
        assert specs[1].timeout == 30.0

    def test_jobs_object_form(self, tmp_path):
        specs = self._load(tmp_path, {"jobs": [{"command": "fig4"}]})
        assert len(specs) == 1

    @pytest.mark.parametrize("doc,needle", [
        ([], "no jobs"),
        ([{"command": "no-such"}], "unknown command"),
        ([{"command": "batch"}], "meta command"),
        ([{"command": "resume"}], "meta command"),
        ([{"command": "fig4", "args": "oops"}], "list of strings"),
        ([{"command": "fig4", "args": [1]}], "list of strings"),
        ([{"command": "fig4", "timeout": -1}], "positive number"),
        ([{"command": "fig4", "id": "a/b"}], "plain name"),
        ([{"command": "fig4", "bogus": 1}], "unknown key"),
        ([{"command": "fig4", "id": "x"},
          {"command": "fig5", "id": "x"}], "duplicate job id"),
        ([42], "expected an object"),
        ({"jobs": [], "extra": 1}, "exactly one key"),
        ("not-a-list", "JSON list"),
        # True would run as a 1 s budget; NaN never compares as expired
        ([{"command": "fig4", "timeout": True}], "finite positive number"),
        ([{"command": "fig4", "timeout": float("nan")}],
         "finite positive number"),
        ([{"command": "fig4", "timeout": float("inf")}],
         "finite positive number"),
    ])
    def test_invalid_specs_raise(self, tmp_path, doc, needle):
        with pytest.raises(SpecError, match=needle):
            self._load(tmp_path, doc)

    def test_unreadable_and_malformed_files(self, tmp_path):
        with pytest.raises(SpecError, match="cannot read"):
            load_specfile(str(tmp_path / "absent.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(SpecError, match="not valid JSON"):
            load_specfile(str(bad))

    def test_job_key_covers_config_not_labels(self):
        a = JobSpec(id="a", command="fig4", args=["--x", "1"])
        b = JobSpec(id="b", command="fig4", args=["--x", "1"], timeout=9.0)
        c = JobSpec(id="c", command="fig4", args=["--x", "2"])
        assert job_key(a) == job_key(b)
        assert job_key(a) != job_key(c)
        assert len(job_key(a)) == 64


# --- the write-ahead journal ----------------------------------------------


class TestJournal:
    def test_append_read_roundtrip(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        with journal_mod.Journal(str(path)) as j:
            j.append({"ev": "batch-start"})
            j.append({"ev": "queued", "job": "a"})
        records, torn = read_journal(str(path))
        assert not torn
        assert [r["ev"] for r in records] == ["batch-start", "queued"]

    def test_torn_tail_is_dropped(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        path.write_text('{"ev":"queued","job":"a"}\n{"ev":"don')
        records, torn = read_journal(str(path))
        assert torn
        assert [r["ev"] for r in records] == ["queued"]

    def test_complete_tail_without_newline_is_kept(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        path.write_text('{"ev":"queued","job":"a"}\n{"ev":"done","job":"a"}')
        records, torn = read_journal(str(path))
        assert not torn
        assert [r["ev"] for r in records] == ["queued", "done"]

    def test_midfile_corruption_raises(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        path.write_text('{"ev":"queued"}\ngarbage\n{"ev":"done"}\n')
        with pytest.raises(JournalError, match="line 2"):
            read_journal(str(path))

    def test_fold_jobs_transitions(self):
        records = [
            {"ev": "queued", "job": "a", "key": "k1", "command": "fig4"},
            {"ev": "queued", "job": "b", "key": "k2", "command": "fig5"},
            {"ev": "queued", "job": "c", "key": "k3", "command": "tlb"},
            {"ev": "running", "job": "a", "attempt": 0},
            {"ev": "killed", "job": "a", "attempt": 0},
            {"ev": "running", "job": "a", "attempt": 1},
            {"ev": "done", "job": "a", "key": "k1", "result": "r.out"},
            {"ev": "running", "job": "b", "attempt": 0},
            {"ev": "failed", "job": "b", "attempt": 0, "exit": 2},
            {"ev": "running", "job": "c", "attempt": 0},
        ]
        folded = fold_jobs(records)
        assert folded["a"]["status"] == "done"
        assert folded["a"]["result"] == "r.out"
        assert folded["a"]["attempts"] == 2
        assert folded["b"]["status"] == "failed"
        assert folded["c"]["status"] == "running"

    def test_recover_missing_journal_is_empty(self, tmp_path):
        states, torn = journal_mod.recover(str(tmp_path / "absent.jsonl"))
        assert states == {} and torn is False

    def test_compact_rewrites_header_plus_keep(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        path.write_text("x" * 100)
        journal_mod.compact(str(path), [{"ev": "done", "job": "a"}],
                            header={"ev": "batch-start"})
        records, torn = read_journal(str(path))
        assert not torn
        assert [r["ev"] for r in records] == ["batch-start", "done"]


# --- chaos plans -----------------------------------------------------------


class TestChaos:
    def test_parse_forms(self):
        plan = parse_chaos("kill-worker:p=0.25,stall:p=0.5", seed=3)
        assert plan.kill_worker_p == 0.25
        assert plan.stall_p == 0.5
        assert plan.seed == 3

    @pytest.mark.parametrize("spec", [
        "kill-worker", "kill-worker:q=0.5", "kill-worker:p=nope",
        "kill-worker:p=1.5", "explode:p=0.5", "kill-worker:p=0,stall:p=0",
        "",
    ])
    def test_parse_rejects(self, spec):
        with pytest.raises(ValueError):
            parse_chaos(spec)

    def test_decisions_are_deterministic_in_seed_and_key(self):
        plan = ChaosPlan(kill_worker_p=0.5, seed=11)
        decisions = [plan.decide(f"key-{i}", 0) for i in range(50)]
        assert decisions == [plan.decide(f"key-{i}", 0) for i in range(50)]
        assert any(d == "kill" for d in decisions)
        assert any(d is None for d in decisions)
        other = ChaosPlan(kill_worker_p=0.5, seed=12)
        assert decisions != [other.decide(f"key-{i}", 0) for i in range(50)]

    def test_retries_are_never_sabotaged(self):
        plan = ChaosPlan(kill_worker_p=1.0, stall_p=1.0, seed=0)
        assert plan.decide("k", 0) == "kill"
        assert plan.decide("k", 1) is None
        assert plan.decide("k", 5) is None

    def test_certain_probabilities(self):
        assert ChaosPlan(kill_worker_p=1.0).decide("k", 0) == "kill"
        assert ChaosPlan(stall_p=1.0).decide("k", 0) == "stall"
        assert ChaosPlan().decide("k", 0) is None


# --- the memo cache --------------------------------------------------------


class TestMemoCache:
    def test_publish_then_lookup(self, tmp_path):
        cache = MemoCache(str(tmp_path))
        src = tmp_path / "stdout.txt"
        src.write_text("result bytes\n")
        assert cache.lookup("k" * 64) is None
        path = cache.publish("k" * 64, str(src))
        assert cache.lookup("k" * 64) == path
        assert Path(path).read_text() == "result bytes\n"

    def test_publish_writes_digest_sidecar(self, tmp_path):
        import hashlib

        cache = MemoCache(str(tmp_path))
        src = tmp_path / "stdout.txt"
        src.write_text("result bytes\n")
        cache.publish("k" * 64, str(src))
        sidecar = Path(cache.digest_path("k" * 64))
        assert sidecar.read_text().strip() \
            == hashlib.sha256(b"result bytes\n").hexdigest()

    def test_tampered_result_is_a_counted_miss(self, tmp_path):
        from repro.analysis.counters import CounterSet

        counters = CounterSet()
        cache = MemoCache(str(tmp_path), counters=counters)
        src = tmp_path / "stdout.txt"
        src.write_text("good bytes\n")
        key = "k" * 64
        path = cache.publish(key, str(src))
        Path(path).write_bytes(b"flipped bit\n")  # corrupt on disk
        assert cache.lookup(key) is None
        assert counters.snapshot()["memo.corrupt"] == 1
        # a re-publish (the re-run's output) heals the entry
        cache.publish(key, str(src))
        assert cache.lookup(key) == path
        assert counters.snapshot()["memo.hit"] == 1

    def test_sidecarless_result_is_a_counted_miss(self, tmp_path):
        from repro.analysis.counters import CounterSet

        counters = CounterSet()
        cache = MemoCache(str(tmp_path), counters=counters)
        key = "k" * 64
        # a crash between result and sidecar writes leaves exactly this
        Path(cache.result_path(key)).write_text("orphan\n")
        assert cache.lookup(key) is None
        assert counters.snapshot()["memo.corrupt"] == 1

    def test_counters_are_optional(self, tmp_path):
        cache = MemoCache(str(tmp_path))
        Path(cache.result_path("k" * 64)).write_text("orphan\n")
        assert cache.lookup("k" * 64) is None  # no counter, no crash


# --- attempt argv construction ---------------------------------------------


class TestWorkerArgv:
    def test_checkpoint_flags_injected(self, tmp_path):
        argv = worker.build_attempt_argv(
            "faults", ["--fault-seed", "7"], str(tmp_path), use_resume=False)
        assert argv[:3] == ["faults", "--fault-seed", "7"]
        assert "--checkpoint-every" in argv and "--checkpoint-dir" in argv

    def test_non_checkpointable_left_alone(self, tmp_path):
        argv = worker.build_attempt_argv("fig4", [], str(tmp_path),
                                         use_resume=False)
        assert argv == ["fig4"]

    def test_resume_attempt_targets_snapshot(self, tmp_path):
        argv = worker.build_attempt_argv("faults", [], str(tmp_path),
                                         use_resume=True)
        assert argv == ["resume", worker.snapshot_path(str(tmp_path))]

    def test_trace_flag_injected_for_traceable(self, tmp_path):
        argv = worker.build_attempt_argv("fig5", [], str(tmp_path),
                                         use_resume=False, trace=True)
        assert "--trace-out" in argv


# --- supervision, end to end ----------------------------------------------

FAST_SPECS = [
    {"command": "fig4"},
    {"command": "breakdown", "args": ["--mb", "1"]},
    {"id": "faults-7", "command": "faults",
     "args": ["--fault-plan", "link_loss=0.02", "--fault-seed", "7"]},
]


class TestClassifyExit:
    def test_taxonomy(self):
        from repro.batch import classify_exit

        assert classify_exit(0, False) == ("done", "exit 0")
        assert classify_exit(-9, False) == ("crash", "killed by signal 9")
        assert classify_exit(-9, True) == ("timeout", "timeout")
        assert classify_exit(2, False) == ("permanent", "exit 2 (permanent)")
        assert classify_exit(1, False)[0] == "transient"
        assert classify_exit(3, False)[0] == "transient"

    def test_exit_2_is_permanent_even_without_timeout_flag(self):
        from repro.batch import classify_exit

        kind, reason = classify_exit(2, False)
        assert kind == "permanent"
        assert "2" in reason


def _write_specs(tmp_path, docs, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(docs))
    return str(path)


def _run(specs_path, out_dir, **kwargs):
    supervisor = BatchSupervisor(load_specfile(specs_path), str(out_dir),
                                 stream=io.StringIO(), **kwargs)
    code = supervisor.run()
    return code, supervisor


def _result_bytes(out_dir):
    results = Path(out_dir) / "results"
    return {p.name: p.read_bytes() for p in results.glob("*.out")}


class TestBatchRuns:
    def test_clean_batch_completes(self, tmp_path, capsys):
        specs = _write_specs(tmp_path, FAST_SPECS)
        code, sup = _run(specs, tmp_path / "out", workers=3)
        assert code == 0
        report = capsys.readouterr().out
        assert "batch: 3 job(s): 3 done" in report
        assert (tmp_path / "out" / "report.txt").exists()
        results = _result_bytes(tmp_path / "out")
        assert len(results) == 3 and all(results.values())
        records, torn = read_journal(str(tmp_path / "out" / "jobs.jsonl"))
        assert not torn
        assert records[0]["ev"] == "batch-start"
        assert records[-1] == {"ev": "batch-end", "done": 3, "failed": 0,
                               "interrupted": False}

    def test_chaos_kill_results_byte_identical(self, tmp_path, capsys):
        specs = _write_specs(tmp_path, FAST_SPECS)
        code, _ = _run(specs, tmp_path / "plain", workers=3)
        assert code == 0
        chaos = parse_chaos("kill-worker:p=1.0", seed=1)
        code, sup = _run(specs, tmp_path / "chaos", workers=3,
                         chaos=chaos, backoff=0.05)
        assert code == 0
        rows = sup.report_rows()
        assert all(r["outcome"] == "done" for r in rows)
        assert sum(r["crashes"] for r in rows) == 3
        assert sum(r["retries"] for r in rows) == 3
        # the acceptance property: recovery is invisible in the results
        assert _result_bytes(tmp_path / "chaos") == \
            _result_bytes(tmp_path / "plain")

    def test_chaos_kill_recovers_from_snapshot(self, tmp_path, capsys):
        # a checkpointable driver killed mid-job must *resume*, not
        # restart: its second attempt is a `repro resume` of the
        # snapshot the first attempt left behind
        specs = _write_specs(tmp_path, [FAST_SPECS[2]])
        stream = io.StringIO()
        sup = BatchSupervisor(load_specfile(specs), str(tmp_path / "out"),
                              chaos=parse_chaos("kill-worker:p=1.0"),
                              backoff=0.05, stream=stream)
        assert sup.run() == 0
        log = stream.getvalue()
        assert "retrying in 0.05s from snapshot" in log
        assert "attempt 2 resumed from snapshot" in log

    def test_stall_chaos_recovered_by_timeout(self, tmp_path, capsys):
        specs = _write_specs(tmp_path, [FAST_SPECS[2]])
        chaos = parse_chaos("stall:p=1.0", seed=0)
        code, sup = _run(specs, tmp_path / "out", chaos=chaos,
                         timeout=1.5, backoff=0.05)
        assert code == 0
        rows = sup.report_rows()
        assert rows[0]["timeouts"] == 1 and rows[0]["outcome"] == "done"

    def test_permanent_failure_exits_1_with_warning(self, tmp_path, capsys):
        # exit 2 (bad spec) is deterministic: it must fail fast after
        # exactly ONE attempt, never burning the retry budget on a
        # failure that cannot change
        specs = _write_specs(tmp_path, [
            {"command": "fig4"},
            {"id": "doomed", "command": "faults",
             "args": ["--fault-plan", "link_sloth=1"]},
        ])
        code, sup = _run(specs, tmp_path / "out", retries=3, backoff=0.05)
        assert code == 1
        report = capsys.readouterr().out
        assert "WARNING" in report and "1 job(s) failed permanently" in report
        rows = {r["job"]: r for r in sup.report_rows()}
        assert rows["doomed"]["outcome"] == "failed (exit 2 (permanent))"
        assert rows["doomed"]["attempts"] == 1
        assert rows["doomed"]["retries"] == 0
        assert rows["job-000-fig4"]["outcome"] == "done"
        records, _ = read_journal(str(tmp_path / "out" / "jobs.jsonl"))
        fails = [r for r in records if r["ev"] == "failed"]
        assert len(fails) == 1 and fails[0]["permanent"] is True
        assert not any(r["ev"] == "retry" for r in records)

    def test_transient_failure_still_retries(self, tmp_path, capsys):
        # classification sanity: exit 1 (here: payload corrupted by an
        # always-corrupting link after retry exhaustion is exit 1 — use
        # a plan that makes the run abort cleanly) must keep retrying
        specs = _write_specs(tmp_path, [
            {"id": "flaky", "command": "faults",
             "args": ["--fault-plan", "link_loss=1.0"]},
        ])
        code, sup = _run(specs, tmp_path / "out", retries=1, backoff=0.05)
        assert code == 1
        rows = sup.report_rows()
        assert rows[0]["attempts"] == 2  # transient: budget consumed

    def test_duplicate_configs_served_from_memo_cache(self, tmp_path, capsys):
        specs = _write_specs(tmp_path, [
            {"id": "first", "command": "fig4"},
            {"id": "twin", "command": "fig4"},
        ])
        code, sup = _run(specs, tmp_path / "out", workers=2)
        assert code == 0
        rows = {r["job"]: r for r in sup.report_rows()}
        assert rows["first"]["cached"] or rows["twin"]["cached"]
        assert len(_result_bytes(tmp_path / "out")) == 1

    def test_existing_journal_requires_resume(self, tmp_path, capsys):
        specs = _write_specs(tmp_path, [{"command": "fig4"}])
        code, _ = _run(specs, tmp_path / "out")
        assert code == 0
        capsys.readouterr()
        with pytest.raises(BatchError, match="--resume"):
            _run(specs, tmp_path / "out")

    def test_resume_serves_done_jobs_without_rerunning(self, tmp_path,
                                                       capsys):
        specs = _write_specs(tmp_path, FAST_SPECS)
        code, _ = _run(specs, tmp_path / "out", workers=3)
        assert code == 0
        before = _result_bytes(tmp_path / "out")
        mtimes = {p: p.stat().st_mtime_ns
                  for p in (tmp_path / "out" / "results").glob("*.out")}
        capsys.readouterr()
        code, sup = _run(specs, tmp_path / "out", workers=3, resume=True)
        assert code == 0
        assert all(r["cached"] for r in sup.report_rows())
        assert all(r["attempts"] == 0 for r in sup.report_rows())
        assert _result_bytes(tmp_path / "out") == before
        assert {p: p.stat().st_mtime_ns
                for p in (tmp_path / "out" / "results").glob("*.out")} \
            == mtimes

    def test_resume_requeues_failed_jobs(self, tmp_path, capsys):
        bad = _write_specs(tmp_path, [
            {"id": "flaky", "command": "faults",
             "args": ["--fault-plan", "link_sloth=1"]},
        ], name="bad.json")
        code, _ = _run(bad, tmp_path / "out", retries=0, backoff=0.05)
        assert code == 1
        # same id, fixed args: the spec changed, so resume re-runs it
        good = _write_specs(tmp_path, [
            {"id": "flaky", "command": "faults",
             "args": ["--fault-plan", "link_loss=0.02"]},
        ], name="good.json")
        capsys.readouterr()
        code, sup = _run(good, tmp_path / "out", resume=True)
        assert code == 0
        assert sup.report_rows()[0]["outcome"] == "done"

    def test_batch_trace_out_merges_job_slices(self, tmp_path, capsys):
        specs = _write_specs(tmp_path, [
            {"id": "a", "command": "faults",
             "args": ["--fault-seed", "1"]},
            {"id": "b", "command": "faults",
             "args": ["--fault-seed", "2"]},
        ])
        trace_path = tmp_path / "batch-trace.json"
        code, _ = _run(specs, tmp_path / "out", workers=2,
                       trace_out=str(trace_path))
        assert code == 0
        doc = json.loads(trace_path.read_text())
        assert sorted(doc["otherData"]["merged_jobs"]) == ["a", "b"]
        names = [ev["args"]["name"] for ev in doc["traceEvents"]
                 if ev.get("ph") == "M" and ev.get("name") == "process_name"]
        assert any(n.startswith("a/") for n in names)
        assert any(n.startswith("b/") for n in names)
        pids = {ev["pid"] for ev in doc["traceEvents"]}
        assert len(pids) >= 2  # jobs renumbered into a shared pid space

    def test_preflight_rejections(self, tmp_path):
        specs = load_specfile(_write_specs(tmp_path, [{"command": "fig4"}]))
        with pytest.raises(BatchError, match="pool size"):
            BatchSupervisor(specs, str(tmp_path / "o"), workers=0)
        with pytest.raises(BatchError, match="retry budget"):
            BatchSupervisor(specs, str(tmp_path / "o"), retries=-1)
        with pytest.raises(BatchError, match="stall needs"):
            BatchSupervisor(specs, str(tmp_path / "o"),
                            chaos=parse_chaos("stall:p=0.5"))
        # 0 is "not None" for the stall check but sets no deadline, so
        # a stalled worker would never be killed
        with pytest.raises(BatchError, match="--timeout must be"):
            BatchSupervisor(specs, str(tmp_path / "o"), timeout=0.0,
                            chaos=parse_chaos("stall:p=1.0"))

    def test_fresh_attempt_never_resumes_a_stale_snapshot(self, tmp_path,
                                                          monkeypatch):
        # an earlier run of job "x" under another config left a
        # snapshot in x's work directory; this run's first attempt is
        # SIGKILLed before its own first snapshot.  Resuming the stale
        # snapshot would publish the old config's stdout under the new
        # config's memo key
        specs = load_specfile(_write_specs(tmp_path, [
            {"id": "x", "command": "faults",
             "args": ["--fault-plan", "link_loss=0.02",
                      "--fault-seed", "2"]},
        ]))
        sup = BatchSupervisor(specs, str(tmp_path / "out"), backoff=0.0,
                              stream=io.StringIO())
        job = sup.jobs[0]
        stale = Path(worker.snapshot_path(job.jobdir))
        stale.parent.mkdir(parents=True)
        stale.write_bytes(b"snapshot of --fault-seed 1")

        class KilledBeforeFirstSnapshot:
            pid = 0
            exitcode = -signal.SIGKILL

            def __init__(self, *args, **kwargs):
                pass

            def start(self):
                pass

            def join(self, timeout=None):
                pass

            def is_alive(self):
                return False

        monkeypatch.setattr("multiprocessing.Process",
                            KilledBeforeFirstSnapshot)
        sup._journal = journal_mod.Journal(sup.journal_path)
        try:
            sup._spawn(job)
            sup._handle_exit(job)
        finally:
            sup._journal.close()
        assert not stale.exists()
        assert job.status == "queued" and not job.resume_next
        records, _ = read_journal(sup.journal_path)
        retry = [r for r in records if r["ev"] == "retry"]
        assert retry and retry[-1]["resume"] is False


class TestBatchCLI:
    def test_cli_end_to_end(self, tmp_path, capsys):
        specs = _write_specs(tmp_path, [{"command": "fig4"}])
        assert main(["batch", specs, "--out-dir", str(tmp_path / "out"),
                     "--jobs", "1"]) == 0
        assert "batch: 1 job(s): 1 done" in capsys.readouterr().out

    def test_cli_bad_specfile_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("[]")
        with pytest.raises(SystemExit) as exc:
            main(["batch", str(bad), "--out-dir", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err

    def test_cli_bad_chaos_exits_2(self, tmp_path, capsys):
        specs = _write_specs(tmp_path, [{"command": "fig4"}])
        with pytest.raises(SystemExit) as exc:
            main(["batch", specs, "--out-dir", str(tmp_path / "out"),
                  "--chaos", "explode:p=0.5"])
        assert exc.value.code == 2
        assert "error: --chaos:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [
        ("--timeout", "nan"),
        ("--timeout", "inf"),
        ("--timeout", "0"),
        ("--timeout", "-1"),
        ("--backoff", "-0.5"),
        ("--backoff", "nan"),
    ])
    def test_cli_bad_timeout_or_backoff_exits_2(self, tmp_path, capsys,
                                                flag, value):
        specs = _write_specs(tmp_path, [{"command": "fig4"}])
        with pytest.raises(SystemExit) as exc:
            main(["batch", specs, "--out-dir", str(tmp_path / "out"),
                  f"{flag}={value}"])
        assert exc.value.code == 2
        assert f"error: batch: {flag} must be" in capsys.readouterr().err
        assert not (tmp_path / "out" / "jobs.jsonl").exists()

    def test_cli_journal_collision_exits_2(self, tmp_path, capsys):
        specs = _write_specs(tmp_path, [{"command": "fig4"}])
        assert main(["batch", specs, "--out-dir",
                     str(tmp_path / "out")]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["batch", specs, "--out-dir", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "--resume" in capsys.readouterr().err


class TestSigintShutdown:
    def test_sigint_flushes_journal_then_resume_completes(self, tmp_path):
        # a worker wedged by stall chaos holds the batch open; SIGINT
        # must tear it down with exit 130 and a replayable journal
        specs = _write_specs(tmp_path, [
            {"command": "fig4"},
            {"id": "wedged", "command": "faults", "timeout": 300},
        ])
        out_dir = tmp_path / "out"
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "batch", specs,
             "--out-dir", str(out_dir), "--jobs", "2",
             "--chaos", "stall:p=1.0", "--timeout", "300"],
            env=env, cwd=str(tmp_path),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        deadline = time.monotonic() + 30.0
        journal = out_dir / "jobs.jsonl"
        # wait until the wedged job's attempt is journalled, then ^C
        while time.monotonic() < deadline:
            if journal.exists() and '"ev":"running"' in journal.read_text():
                break
            time.sleep(0.05)
        else:
            proc.kill()
            pytest.fail("batch never started a worker")
        time.sleep(0.3)
        proc.send_signal(signal.SIGINT)
        stdout, stderr = proc.communicate(timeout=30)
        assert proc.returncode == 130, stderr
        assert "interrupted" in stderr
        records, _torn = read_journal(str(journal))
        assert any(r.get("ev") == "interrupted" for r in records)
        # the journal replays: --resume finishes the batch cleanly
        finish = subprocess.run(
            [sys.executable, "-m", "repro", "batch", specs,
             "--out-dir", str(out_dir), "--jobs", "2", "--resume"],
            env=env, cwd=str(tmp_path), capture_output=True, text=True,
            timeout=60)
        assert finish.returncode == 0, finish.stderr
        assert "2 done" in finish.stdout
        assert len(_result_bytes(out_dir)) == 2

    def test_sigterm_drains_like_sigint_with_exit_143(self, tmp_path):
        # SIGTERM is what orchestrators send; it must get the same
        # graceful teardown as ^C, distinguished only by exit 143
        specs = _write_specs(tmp_path, [
            {"command": "fig4"},
            {"id": "wedged", "command": "faults", "timeout": 300},
        ])
        out_dir = tmp_path / "out"
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "batch", specs,
             "--out-dir", str(out_dir), "--jobs", "2",
             "--chaos", "stall:p=1.0", "--timeout", "300"],
            env=env, cwd=str(tmp_path),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        deadline = time.monotonic() + 30.0
        journal = out_dir / "jobs.jsonl"
        while time.monotonic() < deadline:
            if journal.exists() and '"ev":"running"' in journal.read_text():
                break
            time.sleep(0.05)
        else:
            proc.kill()
            pytest.fail("batch never started a worker")
        time.sleep(0.3)
        proc.send_signal(signal.SIGTERM)
        stdout, stderr = proc.communicate(timeout=30)
        assert proc.returncode == 143, stderr
        assert "interrupted" in stderr
        records, _torn = read_journal(str(journal))
        interrupted = [r for r in records if r.get("ev") == "interrupted"]
        assert interrupted and interrupted[-1]["signal"] == signal.SIGTERM
        finish = subprocess.run(
            [sys.executable, "-m", "repro", "batch", specs,
             "--out-dir", str(out_dir), "--jobs", "2", "--resume"],
            env=env, cwd=str(tmp_path), capture_output=True, text=True,
            timeout=60)
        assert finish.returncode == 0, finish.stderr
        assert "2 done" in finish.stdout
        assert len(_result_bytes(out_dir)) == 2


class TestMemoVerificationInBatch:
    def test_corrupted_done_result_reruns_on_resume(self, tmp_path, capsys):
        specs = _write_specs(tmp_path, FAST_SPECS[:1])
        code, _ = _run(specs, tmp_path / "out")
        assert code == 0
        results = list((tmp_path / "out" / "results").glob("*.out"))
        assert len(results) == 1
        good = results[0].read_bytes()
        results[0].write_bytes(b"bit rot\n")
        capsys.readouterr()
        code, sup = _run(specs, tmp_path / "out", resume=True)
        assert code == 0
        row = sup.report_rows()[0]
        # not served from cache: the corrupt entry forced a re-run,
        # which republished the identical bytes
        assert row["attempts"] == 1 and not row["cached"]
        assert results[0].read_bytes() == good
        assert sup.counters.snapshot().get("memo.corrupt", 0) >= 1
