"""Tests for repro.trace: span attribution, counter exactness, Chrome
export schema, and the byte-identity guarantees (fastpath on/off and
checkpoint resume) the observability docs promise."""

import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import fastpath, trace
from repro.analysis.counters import CounterSet
from repro.checkpoint import RunCheckpointer
from repro.engine import SimKernel
from repro.systems import presets
from repro.trace import NULL_SPAN, Tracer
from repro.workloads.imb import SendRecvBenchmark

KB = 1024


class _Source:
    """A minimal counter/clock source standing in for a Cluster."""

    def __init__(self):
        self.kernel = SimKernel()
        self.counters = CounterSet()

    def aggregate_counters(self):
        return self.counters.snapshot()


class TestDisabledTracing:
    def test_no_tracer_installed_by_default(self):
        assert trace.active() is None

    def test_module_helpers_are_noops_when_disabled(self):
        assert trace.span("anything", bytes=3) is NULL_SPAN
        with trace.span("anything"):
            pass
        trace.instant("anything", bytes=3)  # must not raise
        trace.attach_cluster(object())  # must not even look at it

    def test_capturing_restores_prior_state(self):
        tracer = Tracer()
        with trace.capturing(tracer):
            assert trace.active() is tracer
        assert trace.active() is None


class TestSpanRecording:
    def test_span_becomes_complete_event_on_simulated_time(self):
        src = _Source()
        tracer = Tracer()
        tracer.attach_cluster(src)

        def scenario():
            with tracer.span("phase.a", track="t0", bytes=7):
                yield src.kernel.timeout(100)

        with trace.capturing(tracer):
            src.kernel.process(scenario())
            src.kernel.run()
            tracer.flush()

        (ev,) = [e for e in tracer.events if e["name"] == "phase.a"]
        assert ev["name"] == "phase.a"
        assert ev["ts"] == 0 and ev["dur"] == 100
        assert ev["track"] == "t0" and ev["args"] == {"bytes": 7}

    def test_counter_deltas_attribute_to_innermost_open_span(self):
        src = _Source()
        tracer = Tracer()
        tracer.attach_cluster(src)
        with trace.capturing(tracer):
            src.counters.add("x", 1)  # no span open: unattributed
            with tracer.span("outer"):
                src.counters.add("y", 2)
                with tracer.span("inner"):
                    src.counters.add("z", 3)
                src.counters.add("y", 4)
            tracer.flush()

        table = tracer.phase_table()
        assert table["(unattributed)"] == {"x": 1}
        assert table["outer"] == {"y": 6}
        assert table["inner"] == {"z": 3}
        assert tracer.counter_totals() == {"x": 1, "y": 6, "z": 3}

    def test_phase_table_rows_sum_to_counter_totals(self):
        src = _Source()
        tracer = Tracer()
        tracer.attach_cluster(src)
        with trace.capturing(tracer):
            for i in range(5):
                with tracer.span(f"s{i % 2}"):
                    src.counters.add("a", i)
                    src.counters.add("b", 2 * i)
            tracer.flush()
        summed = {}
        for row in tracer.phase_table().values():
            for k, v in row.items():
                summed[k] = summed.get(k, 0) + v
        assert summed == tracer.counter_totals()


class TestRealWorkloadTrace:
    def _traced_fig5(self):
        tracer = Tracer()
        bench = SendRecvBenchmark(presets.opteron_infinihost_pcie)
        with trace.capturing(tracer):
            bench.run([4 * KB, 64 * KB], hugepages=False, lazy_dereg=True,
                      iterations=2, warmup=1)
            tracer.flush()
        return tracer, bench.last_cluster

    def test_deltas_sum_exactly_to_final_cluster_counters(self):
        """The headline exactness guarantee: attributed deltas are a
        faithful decomposition of the run's aggregate counters — no
        increment lost, none double-counted."""
        tracer, cluster = self._traced_fig5()
        assert tracer.counter_totals() == dict(cluster.aggregate_counters())

    def test_spans_cover_every_layer(self):
        tracer, _ = self._traced_fig5()
        names = {e["name"] for e in tracer.events}
        for expected in ("engine.run", "ib.post_send", "ib.tx",
                         "mpi.eager.send", "mpi.regcache.miss"):
            assert expected in names, f"missing {expected}"

    def test_chrome_export_schema(self):
        tracer, _ = self._traced_fig5()
        doc = json.loads(tracer.dumps())
        assert doc["displayTimeUnit"] == "ns"
        assert doc["traceEvents"]
        for ev in doc["traceEvents"]:
            assert ev["ph"] in ("X", "i", "M")
            assert isinstance(ev["pid"], int) or ev["ph"] == "M"
            for key in ("name", "ts", "pid", "tid"):
                assert key in ev
            if ev["ph"] == "X":
                assert ev["dur"] >= 0
        totals = doc["otherData"]["counter_totals"]
        summed = {}
        for ev in doc["traceEvents"]:
            for k, v in ev.get("args", {}).get("counters", {}).items():
                summed[k] = summed.get(k, 0) + v
        assert summed == totals

    def test_span_attrs_hold_no_floats_or_global_ids(self):
        """Determinism rule: attributes are sizes/names/ranks/ticks —
        ints and strings only, so fast and slow costing paths (and a
        resumed run) serialize identically."""
        tracer, _ = self._traced_fig5()
        for ev in tracer.events:
            for key, value in ev["args"].items():
                assert isinstance(value, (int, str)), (ev["name"], key, value)
                assert not isinstance(value, bool) or True  # bools are ints

    def test_dumps_is_deterministic(self):
        a, _ = self._traced_fig5()
        b, _ = self._traced_fig5()
        assert a.dumps() == b.dumps()


class TestTracedRunIsTheUntracedRun:
    """A tracer only records: the run it watches dispatches the same
    kernel work as the same run untraced (no machinery is pinned)."""

    SIZES = [64 * KB, 256 * KB, 1024 * KB, 4096 * KB]

    def _work(self, traced, monkeypatch):
        from repro.engine.core import Process

        resumes = []
        step = Process._step

        def counting_step(self, event, throw):
            resumes.append(1)
            step(self, event, throw)

        monkeypatch.setattr(Process, "_step", counting_step)
        bench = SendRecvBenchmark(presets.opteron_infinihost_pcie)
        kwargs = dict(hugepages=False, lazy_dereg=True, iterations=4)
        if traced:
            with trace.capturing(Tracer()):
                bench.run(self.SIZES, **kwargs)
        else:
            bench.run(self.SIZES, **kwargs)
        monkeypatch.setattr(Process, "_step", step)
        return bench.last_cluster.kernel._events, len(resumes)

    def test_traced_run_dispatches_the_untraced_events(self, monkeypatch):
        untraced = self._work(False, monkeypatch)
        traced = self._work(True, monkeypatch)
        assert traced == untraced


class TestByteIdentity:
    """Satellite property: the trace stream must not depend on which
    costing path priced the run, nor on where a checkpoint cut it."""

    def _traced_run(self, size):
        tracer = Tracer()
        bench = SendRecvBenchmark(presets.opteron_infinihost_pcie)
        with trace.capturing(tracer):
            bench.run([size], hugepages=False, lazy_dereg=True,
                      iterations=2, warmup=1)
            tracer.flush()
        return tracer.dumps()

    @settings(max_examples=3, deadline=None)
    @given(size=st.sampled_from([4 * KB, 64 * KB, 256 * KB]))
    def test_trace_identical_with_and_without_fastpath(self, size):
        fast = self._traced_run(size)
        with fastpath.forced(False):
            slow = self._traced_run(size)
        assert fast == slow

    def _fig5_units(self):
        bench = SendRecvBenchmark(presets.opteron_infinihost_pcie)
        units = {}
        for label, hp in (("small", False), ("huge", True)):
            def fn(hp=hp):
                res = bench.run([4 * KB], hugepages=hp, lazy_dereg=True,
                                iterations=2, warmup=1)
                cluster = bench.last_cluster
                return res, cluster.kernel.now, cluster
            units[f"fig5:{label}"] = fn
        return units

    def test_trace_identical_across_checkpoint_resume(self):
        # uninterrupted traced run
        full = Tracer()
        with trace.capturing(full):
            ck = RunCheckpointer("fig5", [], stream=io.StringIO())
            for name, fn in self._fig5_units().items():
                ck.run_unit(name, fn)
            full.flush()

        # same run, interrupted after the first unit: the resumed
        # ledger replays unit 1 from its stored trace blob and
        # re-simulates unit 2
        first = Tracer()
        with trace.capturing(first):
            ck1 = RunCheckpointer("fig5", [], stream=io.StringIO())
            units = self._fig5_units()
            name0 = next(iter(units))
            ck1.run_unit(name0, units[name0])
        resumed = Tracer()
        with trace.capturing(resumed):
            ck2 = RunCheckpointer("fig5", [], preloaded_units=ck1.units,
                                  stream=io.StringIO())
            for name, fn in self._fig5_units().items():
                ck2.run_unit(name, fn)
            resumed.flush()

        assert resumed.dumps() == full.dumps()

    def test_resume_from_untraced_snapshot_omits_restored_units(self):
        """A snapshot written without tracing has no trace blobs; a
        traced resume must still work, just without the replayed
        spans."""
        ck1 = RunCheckpointer("fig5", [], stream=io.StringIO())
        units = self._fig5_units()
        name0 = next(iter(units))
        ck1.run_unit(name0, units[name0])

        resumed = Tracer()
        with trace.capturing(resumed):
            ck2 = RunCheckpointer("fig5", [], preloaded_units=ck1.units,
                                  stream=io.StringIO())
            for name, fn in self._fig5_units().items():
                ck2.run_unit(name, fn)
            resumed.flush()
        unit_names = {e["unit"] for e in resumed.events}
        assert name0 not in unit_names  # no blob to replay
        assert "fig5:huge" in unit_names  # re-simulated and traced
