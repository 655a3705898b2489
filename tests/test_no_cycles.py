"""A finished run leaves no cyclic garbage behind.

The simulator's object graph is acyclic (see "Ownership" in
``DESIGN.md``): a link from an owner to what it owns is a plain
reference, a link that points back is deleted or weak, and a callback
armed on a queue holds the object that armed it weakly
(:class:`repro.util.WeakCall`).  So a ``Cluster``, its machines, its
``MPIWorld`` and everything they own are freed by reference counting
the moment the last reference drops, without waiting for a collection.

Each test runs one workload with the collector off.  Right after the
run no cluster may be alive, and a collection under ``DEBUG_SAVEALL``
may find no object of a ``repro`` type and no function, generator or
coroutine whose code lives in the ``repro`` package.
"""

from __future__ import annotations

import contextlib
import gc
import io
import os
import types
import weakref
from collections import Counter
from typing import Callable, List, Tuple

import pytest

import repro
from repro import sanitize, trace
from repro.checkpoint import live_clusters
from repro.faults import FaultPlan
from repro.figures import FIGURES, Harness
from repro.mpi.api import MPIWorld
from repro.systems import Cluster, presets
from repro.workloads.abinit import run_abinit
from repro.workloads.imb import PingPongBenchmark, SendRecvBenchmark
from repro.workloads.train import run_train

KB = 1024
MB = 1024 * KB

REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep

#: code-carrying objects, and where each keeps its code object
_CODE_OF = {
    types.FunctionType: "__code__",
    types.GeneratorType: "gi_code",
    types.CoroutineType: "cr_code",
}


def _ours(obj: object) -> str:
    """A label for *obj* when it belongs to the program, else ""."""
    cls = type(obj)
    module = getattr(cls, "__module__", "") or ""
    if module == "repro" or module.startswith("repro."):
        return f"{module}.{cls.__qualname__}"
    attr = _CODE_OF.get(cls)
    if attr is not None:
        code = getattr(obj, attr)
        if os.path.abspath(code.co_filename).startswith(REPRO_DIR):
            name = getattr(code, "co_qualname", code.co_name)
            return f"{cls.__name__} {name}"
    return ""


def leftovers(run: Callable[[], None]) -> Tuple[List[str], Counter]:
    """Run *run* with the collector off; return the names of the
    clusters still alive right after it, and what a collection then
    finds of the program's objects (labels and counts, never the
    objects, so the check keeps nothing alive)."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        run()
        alive = sorted(c.spec.name for c in live_clusters())
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            gc.collect()
            found = Counter(label for label in map(_ours, gc.garbage) if label)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
    finally:
        if enabled:
            gc.enable()
        gc.collect()
    return alive, found


def assert_acyclic(run: Callable[[], None]) -> None:
    alive, found = leftovers(run)
    assert not alive, f"clusters alive after the run: {alive}"
    assert not found, f"cyclic garbage of the program: {dict(found.most_common(12))}"


# -- the runs ----------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(FIGURES))
def test_figure_cli_sweep(name):
    fig = FIGURES[name]

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            fig.driver(fig.cli, Harness())

    assert_acyclic(run)


@pytest.mark.parametrize("hugepages,lazy", [(False, True), (True, True),
                                            (False, False), (True, False)])
def test_sendrecv_curve(hugepages, lazy):
    def run():
        SendRecvBenchmark(presets.opteron_infinihost_pcie).run(
            [1 * MB], hugepages=hugepages, lazy_dereg=lazy, iterations=2)

    assert_acyclic(run)


def test_sendrecv_copy_rendezvous_and_eager():
    def run():
        SendRecvBenchmark(presets.opteron_infinihost_pcie).run(
            [100, 12 * KB], hugepages=False, lazy_dereg=True, iterations=2)

    assert_acyclic(run)


def test_pingpong():
    def run():
        PingPongBenchmark(presets.opteron_infinihost_pcie).run(
            [4 * KB, 64 * KB], hugepages=True, iterations=2)

    assert_acyclic(run)


@pytest.mark.parametrize("hugepages", [False, True])
def test_abinit(hugepages):
    def run():
        run_abinit(presets.opteron_infinihost_pcie(), hugepages=hugepages,
                   iterations=1, seed=1)

    assert_acyclic(run)


def test_train_driver():
    def run():
        run_train(msg_bytes=1024, count=64, window=8)

    assert_acyclic(run)


def test_under_a_fault_plan():
    def run():
        plan = FaultPlan.from_spec("link_loss=0.02", seed=7)
        SendRecvBenchmark(presets.opteron_infinihost_pcie).run(
            [16 * KB, 64 * KB], hugepages=False, lazy_dereg=True,
            iterations=2, fault_plan=plan)

    assert_acyclic(run)


def test_under_a_tracer():
    def run():
        with trace.capturing(trace.Tracer()):
            SendRecvBenchmark(presets.opteron_infinihost_pcie).run(
                [12 * KB, 1 * MB], hugepages=True, lazy_dereg=False,
                iterations=2)

    assert_acyclic(run)


def test_under_the_sanitizer():
    def run():
        with sanitize.capturing(sanitize.Sanitizer()):
            SendRecvBenchmark(presets.opteron_infinihost_pcie).run(
                [12 * KB, 1 * MB], hugepages=True, lazy_dereg=True,
                iterations=2)

    assert_acyclic(run)


def test_a_free_after_the_world_is_gone_still_invalidates():
    """The address space owns its rank's registration cache through the
    unmap hook (the cache points back at the space weakly), so a process
    that outlives its world can still free memory the cache registered,
    and the cache drops the registration first."""
    cluster = Cluster(presets.opteron_infinihost_pcie(), 2)
    bufs = {}

    def program(comm):
        bufs[comm.rank] = buf = comm.proc.malloc(MB)
        other = 1 - comm.rank
        yield from comm.sendrecv(other, 1, MB, source=other, recvtag=1,
                                 send_addr=buf, recv_addr=buf)

    MPIWorld(cluster, ppn=1).run(program)
    proc = cluster.nodes[0].processes[0]
    before = proc.counters.get("regcache.invalidate")
    proc.free(bufs[0])
    assert proc.counters.get("regcache.invalidate") == before + 1


# -- the check itself ----------------------------------------------------------

def test_a_planted_back_reference_is_caught():
    """One strong link from an owned object back to its owner is a
    cycle: the cluster outlives the run and the collection finds it."""
    def run():
        cluster = Cluster(presets.opteron_infinihost_pcie(), 2)
        cluster.nodes[0].hca.planted_owner = cluster

    alive, found = leftovers(run)
    assert len(alive) == 1
    assert found["repro.systems.machine.Cluster"] == 1
    assert found["repro.ib.hca.HCA"] == 2


def test_a_planted_self_referencing_function_is_caught():
    """A function of the program that reaches itself (the shape of the
    recursive closures a protocol chain once had) is found by where its
    code lives."""
    from repro.mpi.api import _matcher

    def run():
        matches = _matcher(None, None)
        matches.planted_self = matches

    alive, found = leftovers(run)
    assert found == Counter({"function _matcher.<locals>.matches": 1})
    assert not alive


def test_a_weak_back_reference_is_not_a_cycle():
    """The control for the plants above: the same link held weakly
    leaves nothing behind."""
    def run():
        cluster = Cluster(presets.opteron_infinihost_pcie(), 2)
        cluster.nodes[0].hca.planted_owner = weakref.ref(cluster)

    assert_acyclic(run)
