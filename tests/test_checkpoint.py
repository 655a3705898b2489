"""Checkpointing: snapshot files, post-mortem capture, run ledger,
watchdog.

The load-bearing guarantee under test: a checkpointed CLI-style run
resumed from any run-ledger snapshot reproduces the uninterrupted run's
results exactly.
"""

import io
import os
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint import (
    SCHEMA,
    CheckpointError,
    HangWatchdog,
    RunCheckpointer,
    capture_cluster,
    pending_work,
    read_snapshot,
    write_snapshot,
)
from repro.engine import core as engine_core
from repro.faults import FaultPlan
from repro.systems import Cluster, presets
from repro.workloads.imb import SendRecvBenchmark
from repro.workloads.nas import KERNELS
from repro.workloads.nas.common import run_nas

KB = 1024


# ---------------------------------------------------------------------------
# snapshot files
# ---------------------------------------------------------------------------

class TestSnapshotFiles:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "a.snap")
        payload = {"hello": [1, 2, 3], "nested": {"x": (4, 5)}}
        manifest = write_snapshot(path, payload, meta={"kind": "test"})
        assert manifest["schema"] == SCHEMA
        got_manifest, got = read_snapshot(path)
        assert got == payload
        assert got_manifest["meta"] == {"kind": "test"}
        # the manifest is one plain-JSON line a human can inspect
        with open(path, "rb") as fh:
            import json

            assert json.loads(fh.readline()) == got_manifest

    def test_corrupt_body_fails_integrity_check(self, tmp_path):
        path = str(tmp_path / "a.snap")
        write_snapshot(path, {"x": 1})
        blob = bytearray(open(path, "rb").read())
        blob[-1] ^= 0xFF
        open(path, "wb").write(bytes(blob))
        with pytest.raises(CheckpointError, match="integrity check failed"):
            read_snapshot(path)

    def test_garbage_file_has_no_manifest(self, tmp_path):
        path = str(tmp_path / "a.snap")
        open(path, "w").write("certainly not a snapshot\n")
        with pytest.raises(CheckpointError, match="no snapshot manifest"):
            read_snapshot(path)

    def test_unknown_schema_is_refused(self, tmp_path):
        import hashlib
        import json
        import pickle

        path = str(tmp_path / "a.snap")
        body = pickle.dumps({"x": 1})
        manifest = {"schema": "repro-checkpoint/999",
                    "sha256": hashlib.sha256(body).hexdigest(),
                    "payload_bytes": len(body), "meta": {}}
        with open(path, "wb") as fh:
            fh.write(json.dumps(manifest).encode() + b"\n")
            fh.write(body)
        with pytest.raises(CheckpointError, match="unsupported snapshot schema"):
            read_snapshot(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read snapshot"):
            read_snapshot(str(tmp_path / "absent.snap"))


# ---------------------------------------------------------------------------
# quiescence
# ---------------------------------------------------------------------------

class TestQuiescence:
    def test_forensic_capture_lists_pending_work(self, tmp_path):
        """The post-mortem capture works mid-run: it lists what is still
        in flight, summarises pending events instead of pickling them,
        and survives the snapshot-file round trip."""
        cluster = Cluster(presets.opteron_infinihost_pcie(), 2)

        def proc():
            yield cluster.kernel.timeout(10)

        cluster.kernel.process(proc())
        snap = capture_cluster(cluster)
        assert snap["pending_work"] == pending_work(cluster)
        assert "events pending in the event heap" in snap["pending_work"][0]
        assert snap["kernel"]["queue_length"] >= 1
        path = str(tmp_path / "post.snap")
        write_snapshot(path, snap, meta={"kind": "post-mortem"})
        manifest, payload = read_snapshot(path)
        assert manifest["meta"] == {"kind": "post-mortem"}
        assert payload == snap
        cluster.kernel.run()  # drain so the cluster dies quiescent
        assert pending_work(cluster) == []

    def test_drained_run_until_stamps_real_tick(self):
        """Regression: ``run(until=T)`` used to fast-forward the clock to
        T even when the queue drained earlier, so a snapshot taken after
        such a run stamped a tick no event ever reached."""
        cluster = Cluster(presets.opteron_infinihost_pcie(), 2)
        k = cluster.kernel

        def proc():
            yield k.timeout(10)

        k.process(proc())
        k.run(until=1_000_000)
        assert k.now == 10  # not 1_000_000


# ---------------------------------------------------------------------------
# the run ledger
# ---------------------------------------------------------------------------

class TestRunCheckpointer:
    def test_caches_units_and_replays_from_snapshot(self, tmp_path):
        calls = []

        def unit(name, value, ticks):
            def fn():
                calls.append(name)
                return value, ticks, None
            return fn

        ck = RunCheckpointer("demo", ["demo", "--x"], directory=str(tmp_path),
                             every_ticks=0, stream=io.StringIO())
        assert ck.run_unit("u1", unit("u1", {"x": 1}, 10)) == {"x": 1}
        assert ck.run_unit("u2", unit("u2", [1, 2], 5)) == [1, 2]
        assert calls == ["u1", "u2"]
        assert os.path.exists(tmp_path / "latest.snap")

        _, payload = read_snapshot(str(tmp_path / "latest.snap"))
        assert payload["kind"] == "run-ledger"
        assert payload["command"] == "demo"
        assert payload["argv"] == ["demo", "--x"]

        resumed = RunCheckpointer("demo", ["demo", "--x"],
                                  preloaded_units=payload["units"],
                                  stream=io.StringIO())
        assert resumed.run_unit("u1", unit("u1", None, 0)) == {"x": 1}
        assert resumed.run_unit("u2", unit("u2", None, 0)) == [1, 2]
        assert calls == ["u1", "u2"]  # nothing re-executed

    def test_every_ticks_threshold(self, tmp_path):
        ck = RunCheckpointer("demo", [], directory=str(tmp_path),
                             every_ticks=100, stream=io.StringIO())
        ck.run_unit("a", lambda: (1, 40, None))
        assert ck.last_snapshot_path is None  # 40 < 100: not yet
        ck.run_unit("b", lambda: (2, 70, None))
        assert ck.last_snapshot_path is not None  # 110 >= 100
        _, payload = read_snapshot(ck.last_snapshot_path)
        assert sorted(payload["units"]) == ["a", "b"]

    def test_audit_runs_on_real_clusters(self, tmp_path):
        cluster = Cluster(presets.opteron_infinihost_pcie(), 2)
        ck = RunCheckpointer("demo", [], directory=str(tmp_path),
                             every_ticks=0, stream=io.StringIO())
        ck.run_unit("ok", lambda: (1, 0, cluster))  # clean: no raise
        from repro.audit import AuditError
        import heapq

        bad = Cluster(presets.opteron_infinihost_pcie(), 1)
        bad.kernel._now = 100
        heapq.heappush(bad.kernel._queue, (50, 1, 0, bad.kernel.event()))
        with pytest.raises(AuditError):
            ck.run_unit("bad", lambda: (1, 0, bad))
        bad.kernel._queue.clear()


# ---------------------------------------------------------------------------
# checkpoint-at-arbitrary-tick + resume == uninterrupted (property)
# ---------------------------------------------------------------------------

_BASELINES = {}


def _fig5_units(plan):
    bench = SendRecvBenchmark(presets.opteron_infinihost_pcie)
    units = {}
    for label, hp in (("small", False), ("huge", True)):
        def fn(hp=hp):
            res = bench.run([4 * KB, 64 * KB], hugepages=hp, lazy_dereg=True,
                            iterations=2, warmup=1, fault_plan=plan)
            cluster = bench.last_cluster
            return res, cluster.kernel.now, cluster
        units[f"fig5:{label}"] = fn
    return units


def _nas_units(plan):
    units = {}
    for label, hp in (("small", False), ("huge", True)):
        def fn(hp=hp):
            sink = []
            res = run_nas(KERNELS["EP"], presets.opteron_infinihost_pcie(),
                          hugepages=hp, klass="W", ppn=2,
                          nas_hugepage_pool=720, cluster_sink=sink,
                          fault_plan=plan)
            return res, sink[0].kernel.now, sink[0]
        units[f"nas:EP:{label}"] = fn
    return units


def _checkpoint_resume_equals_uninterrupted(kind, make_units, plan, every):
    """Run checkpointed, then resume from the FIRST snapshot (the
    'interruption point' the drawn tick threshold lands on) and require
    results identical to the uninterrupted run."""
    key = (kind, plan is not None)
    if key not in _BASELINES:  # simulation is deterministic: cache it
        ledger = RunCheckpointer(kind, [], stream=io.StringIO())
        _BASELINES[key] = {name: ledger.run_unit(name, fn)
                           for name, fn in make_units(plan).items()}
    baseline = _BASELINES[key]

    tmp = tempfile.mkdtemp(prefix="repro-ckpt-test-")
    ck = RunCheckpointer(kind, [], directory=tmp, every_ticks=every,
                         stream=io.StringIO())
    for name, fn in make_units(plan).items():
        ck.run_unit(name, fn)

    first = os.path.join(tmp, "ckpt-0001.snap")
    if os.path.exists(first):
        units = read_snapshot(first)[1]["units"]
    else:
        units = {}  # threshold beyond the whole run: resume from scratch
    resumed = RunCheckpointer(kind, [], preloaded_units=units,
                              stream=io.StringIO())
    result = {name: resumed.run_unit(name, fn)
              for name, fn in make_units(plan).items()}
    assert result == baseline


class TestCheckpointResumeProperty:
    @settings(max_examples=4, deadline=None)
    @given(every=st.integers(min_value=0, max_value=3_000_000),
           faulted=st.booleans())
    def test_fig5_resume_bit_identical(self, every, faulted):
        plan = FaultPlan(seed=5, link_loss=0.01) if faulted else None
        _checkpoint_resume_equals_uninterrupted("fig5", _fig5_units, plan, every)

    @settings(max_examples=4, deadline=None)
    @given(every=st.integers(min_value=0, max_value=3_000_000),
           faulted=st.booleans())
    def test_nas_ep_resume_bit_identical(self, every, faulted):
        plan = FaultPlan(seed=5, link_loss=0.01) if faulted else None
        _checkpoint_resume_equals_uninterrupted("nas", _nas_units, plan, every)


# ---------------------------------------------------------------------------
# hang watchdog
# ---------------------------------------------------------------------------

class TestHangWatchdog:
    def test_fires_on_frozen_kernel_with_post_mortem(self, tmp_path):
        cluster = Cluster(presets.opteron_infinihost_pcie(), 1)
        fired = []
        dog = HangWatchdog(0.25, snapshot_dir=str(tmp_path),
                           on_hang=fired.append, poll_s=0.05,
                           stream=io.StringIO())
        engine_core._active_kernel = cluster.kernel  # frozen: seq/now never move
        try:
            dog.start()
            deadline = time.monotonic() + 10.0
            while not dog.fired and time.monotonic() < deadline:
                time.sleep(0.02)
        finally:
            engine_core._active_kernel = None
            dog.stop()
        assert dog.fired
        assert fired and "repro hang post-mortem" in fired[0]
        assert dog.report_path == str(tmp_path / "postmortem-report.txt")
        assert "kernel: now=0" in open(dog.report_path).read()
        assert str(tmp_path / "postmortem-cluster0.snap") in dog.snapshot_paths
        manifest, payload = read_snapshot(dog.snapshot_paths[0])
        assert manifest["meta"]["kind"] == "post-mortem"
        assert payload["kind"] == "cluster"

    def test_host_side_work_is_not_a_hang(self):
        fired = []
        dog = HangWatchdog(0.15, on_hang=fired.append, poll_s=0.03,
                           stream=io.StringIO())
        with dog:  # no active kernel the whole time
            time.sleep(0.5)
        assert not dog.fired and not fired


class TestCounterSetRestore:
    """CounterSet keys must survive a snapshot round trip even when the
    deserialiser hands back ``str`` subclasses: ``sys.intern`` raises
    TypeError on those, so an un-normalised increment with a subclass
    key crashed a resumed run that an uninterrupted run completed
    fine."""

    class StrSub(str):
        pass

    def test_add_accepts_str_subclass_keys(self):
        from repro.analysis.counters import CounterSet

        cs = CounterSet()
        cs.add(self.StrSub("tlb.4k.miss"))  # raised TypeError before
        cs.add("tlb.4k.miss", 2)
        assert cs["tlb.4k.miss"] == 3
        # the stored key is the interned plain str, not the subclass
        (key,) = [k for k, _ in cs]
        assert type(key) is str

    def test_add_many_accepts_str_subclass_keys(self):
        from repro.analysis.counters import CounterSet

        cs = CounterSet()
        cs.add_many([(self.StrSub("att.miss"), 5), ("att.miss", 1)])
        assert cs["att.miss"] == 6

    def test_restored_set_matches_uninterrupted_run(self):
        """A set rebuilt from a deserialised snapshot, then incremented,
        must land on the same entries an uninterrupted run produces —
        snapshots identical."""
        from repro.analysis.counters import CounterSet

        uninterrupted = CounterSet()
        for name, n in [("a.x", 1), ("b.y", 2), ("a.x", 3)]:
            uninterrupted.add(name, n)

        resumed = CounterSet()
        resumed.add("a.x", 1)
        snap = resumed.snapshot()
        # round-trip through a deserialiser that yields str subclasses
        resumed2 = CounterSet()
        resumed2.add_many((self.StrSub(k), v) for k, v in snap.items())
        resumed2.add_many([(self.StrSub("b.y"), 2), ("a.x", 3)])

        assert resumed2.snapshot() == uninterrupted.snapshot()
