"""Fault-path pins: the adapter's retransmission machinery, tick-exact.

A lossy or corrupting link drives every fault decision of the adapter
pipeline: the sender's ack-timeout watchdog, retransmission with
backoff, the receiver's idempotence check on duplicates, the RNR wait,
stale acks, and the abort that drops a QP to SQE.  The injector draws
one decision per wire delivery from a single seeded stream, so moving a
delivery within a tick changes which packet a draw hits and the whole
run diverges.  These pins record, as literals, what each run did:

- ``GRID``: two-node MPI rendezvous runs (write and read protocols)
  under ``link_loss``, ``link_corrupt`` and both together, and under the
  registration and hugepage knobs.  Each row holds the outcome
  (``("done", app_ticks)``, ``("aborted", status, wr_id)`` or
  ``("failed", message)`` for a registration that failed for good) and
  every ``faults.*`` counter of the run.
- ``TestRNR``: a verbs-level send whose receive WR is posted long after
  the ack timeout.  ``rnr_retry=7`` waits it out; ``rnr_retry=1`` gives
  up, and the late ack that follows is dropped as stale.
"""

from __future__ import annotations

import pytest

from repro.core.placement import BufferPlacer, PlacementPolicy
from repro.faults import FaultPlan, MPITransportError, RegistrationFaultError
from repro.ib.hca import HCA
from repro.ib.verbs import SGE, CompletionQueue, ProtectionDomain, RecvWR, SendWR
from repro.mpi.api import MPIConfig, MPIWorld
from repro.systems import Cluster, presets

KB = 1024
MB = 1024 * KB


def _faults(cluster):
    """The run's ``faults.*`` counters, prefix stripped."""
    return {key[len("faults."):]: value
            for key, value in sorted(cluster.aggregate_counters().items())
            if key.startswith("faults.")}


def _mpi_cluster_run(spec, seed, protocol, n_msgs, size):
    """*n_msgs* rendezvous transfers rank 0 -> rank 1 under *spec*;
    returns the outcome and the cluster."""
    plan = FaultPlan.from_spec(spec, seed=seed)
    cluster = Cluster(presets.opteron_infinihost_pcie(), n_nodes=2,
                      fault_plan=plan)
    world = MPIWorld(cluster, ppn=1, config=MPIConfig(rndv_protocol=protocol))
    expected = [("msg", i) for i in range(n_msgs)]

    def program(comm):
        buf = BufferPlacer(comm.proc).place(
            size, PlacementPolicy.SMALL_PAGES, offset=0)
        if comm.rank == 0:
            for i in range(n_msgs):
                yield from comm.send(1, 10 + i, size, addr=buf.addr,
                                     payload=("msg", i))
            return None
        got = []
        for i in range(n_msgs):
            payload, *_ = yield from comm.recv(0, 10 + i, addr=buf.addr)
            got.append(payload)
        return got

    try:
        results = world.run(program)
    except MPITransportError as exc:
        text = str(exc)
        wr_id = int(text.split("send WR ")[1].split(" ")[0])
        return ("aborted", text.rsplit("failed: ", 1)[1], wr_id), cluster
    except RegistrationFaultError as exc:
        return ("failed", str(exc)), cluster
    assert results[1].value == expected
    return ("done", max(r.app_ticks for r in results)), cluster


def _mpi_run(spec, seed, protocol, n_msgs=6, size=48 * KB):
    """The outcome and ``faults.*`` counters of :func:`_mpi_cluster_run`."""
    outcome, cluster = _mpi_cluster_run(spec, seed, protocol, n_msgs, size)
    return outcome, _faults(cluster)


#: (protocol, plan spec, seed, outcome, faults.* counters)
GRID = [
    ('write', 'link_loss=0.05', 1, ('aborted', 'transport-retry-exceeded-error', 17),
     {'link.dropped': 12, 'qp.duplicates': 2, 'qp.recovery_ticks': 292785, 'qp.retries': 11, 'qp.retry_exhausted': 1}),
    ('write', 'link_loss=0.05', 2, ('done', 3422218),
     {'link.dropped': 18, 'qp.recovery_ticks': 6850765, 'qp.retries': 18}),
    ('write', 'link_loss=0.05', 3, ('done', 1207388),
     {'link.dropped': 9, 'qp.recovery_ticks': 2354595, 'qp.retries': 9}),
    ('write', 'link_corrupt=0.05', 4, ('aborted', 'transport-retry-exceeded-error', 29),
     {'link.corrupted': 8, 'link.rejected': 8, 'qp.retries': 7, 'qp.retry_exhausted': 1}),
    ('write', 'link_corrupt=0.05', 5, ('done', 4396613),
     {'link.corrupted': 15, 'link.rejected': 15, 'qp.duplicates': 3, 'qp.recovery_ticks': 6681470, 'qp.retries': 15}),
    ('write', 'link_corrupt=0.05', 6, ('done', 661899),
     {'link.corrupted': 12, 'link.rejected': 12, 'qp.duplicates': 2, 'qp.recovery_ticks': 1327180, 'qp.retries': 12}),
    ('write', 'link_loss=0.03,link_corrupt=0.03', 1, ('aborted', 'transport-retry-exceeded-error', 13),
     {'link.corrupted': 2, 'link.dropped': 9, 'link.rejected': 2, 'qp.duplicates': 2, 'qp.recovery_ticks': 150000, 'qp.retries': 10, 'qp.retry_exhausted': 1}),
    ('write', 'link_loss=0.03,link_corrupt=0.03', 2, ('done', 1402999),
     {'link.corrupted': 8, 'link.dropped': 6, 'link.rejected': 8, 'qp.duplicates': 1, 'qp.recovery_ticks': 2790400, 'qp.retries': 14}),
    ('write', 'link_loss=0.03,link_corrupt=0.03', 3, ('done', 1328558),
     {'link.corrupted': 6, 'link.dropped': 7, 'link.rejected': 6, 'qp.duplicates': 2, 'qp.recovery_ticks': 2620635, 'qp.retries': 13}),
    ('write', 'link_loss=0.1', 5, ('aborted', 'transport-retry-exceeded-error', 13),
     {'link.dropped': 9, 'qp.recovery_ticks': 30000, 'qp.retries': 8, 'qp.retry_exhausted': 1}),
    ('read', 'link_loss=0.05', 1, ('aborted', 'transport-retry-exceeded-error', 18),
     {'link.dropped': 12, 'qp.duplicates': 3, 'qp.recovery_ticks': 130000, 'qp.retries': 11, 'qp.retry_exhausted': 1}),
    ('read', 'link_loss=0.05', 2, ('done', 355412),
     {'link.dropped': 12, 'qp.duplicates': 1, 'qp.recovery_ticks': 620000, 'qp.retries': 12}),
    ('read', 'link_loss=0.05', 3, ('done', 355412),
     {'link.dropped': 11, 'qp.recovery_ticks': 590000, 'qp.retries': 11}),
    ('read', 'link_corrupt=0.05', 4, ('done', 445412),
     {'link.corrupted': 9, 'link.rejected': 9, 'qp.recovery_ticks': 760000, 'qp.retries': 9}),
    ('read', 'link_corrupt=0.05', 5, ('done', 375092),
     {'link.corrupted': 15, 'link.rejected': 15, 'qp.duplicates': 1, 'qp.recovery_ticks': 650000, 'qp.retries': 15}),
    ('read', 'link_corrupt=0.05', 6, ('done', 205412),
     {'link.corrupted': 7, 'link.rejected': 7, 'qp.recovery_ticks': 280000, 'qp.retries': 7}),
    ('read', 'link_loss=0.03,link_corrupt=0.03', 1, ('aborted', 'transport-retry-exceeded-error', 24),
     {'link.corrupted': 9, 'link.dropped': 19, 'link.rejected': 9, 'qp.duplicates': 3, 'qp.recovery_ticks': 2610000, 'qp.retries': 27, 'qp.retry_exhausted': 1}),
    ('read', 'link_loss=0.03,link_corrupt=0.03', 2, ('aborted', 'transport-retry-exceeded-error', 18),
     {'link.corrupted': 6, 'link.dropped': 7, 'link.rejected': 6, 'qp.recovery_ticks': 340000, 'qp.retries': 12, 'qp.retry_exhausted': 1}),
    ('read', 'link_loss=0.03,link_corrupt=0.03', 3, ('aborted', 'transport-retry-exceeded-error', 24),
     {'link.corrupted': 2, 'link.dropped': 9, 'link.rejected': 2, 'qp.duplicates': 1, 'qp.recovery_ticks': 100000, 'qp.retries': 10, 'qp.retry_exhausted': 1}),
    ('read', 'link_loss=0.1', 5, ('aborted', 'transport-retry-exceeded-error', 15),
     {'link.dropped': 9, 'qp.recovery_ticks': 30000, 'qp.retries': 8, 'qp.retry_exhausted': 1}),
    ('write', 'reg_transient=0.3', 1, ('done', 91973),
     {'reg.transient': 2, 'regcache.retries': 2}),
    ('write', 'reg_transient=0.3', 4, ('done', 89973),
     {'qp.rnr_naks': 1, 'reg.transient': 4, 'regcache.retries': 4}),
    ('read', 'reg_transient=0.3', 2, ('done', 91412),
     {'reg.transient': 2, 'regcache.retries': 2}),
    ('write', 'reg_transient=0.6', 4, ('failed', 'registration of [0x7ffefff92000+49152] still failing after 5 attempts'),
     {'reg.transient': 11, 'regcache.retries': 11}),
    ('read', 'reg_transient=0.6', 4, ('failed', 'registration of [0x7ffefff92000+49152] still failing after 5 attempts'),
     {'reg.transient': 11, 'regcache.retries': 11}),
    ('write', 'reg_transient=0.6', 7, ('failed', 'registration of [0x7ffefff9f010+393216] still failing after 5 attempts'),
     {'qp.rnr_naks': 1, 'reg.transient': 6, 'regcache.retries': 6}),
    ('write', 'reg_permanent=0.2', 2, ('failed', 'registration of [0x7ffefff92000+49152] failed permanently (adapter translation table exhausted)'),
     {'reg.permanent': 1}),
    ('read', 'reg_permanent=0.2', 1, ('failed', 'registration of [0x7ffefff9f010+393216] failed permanently (adapter translation table exhausted)'),
     {'reg.permanent': 1}),
    ('write', 'hugepage_deplete_after=1', 1, ('done', 89973), {}),
    ('read', 'hugepage_deplete_after=1', 1, ('done', 85412), {}),
]


@pytest.mark.parametrize(
    "protocol,spec,seed,outcome,counters", GRID,
    ids=[f"{row[0]}-{row[1]}-seed{row[2]}" for row in GRID])
def test_mpi_fault_run_is_pinned(protocol, spec, seed, outcome, counters):
    assert _mpi_run(spec, seed, protocol) == (outcome, counters)


def test_grid_reaches_every_recovery_path():
    """The grid is only a pin if its runs go down the recovery paths."""
    seen = set().union(*(row[4] for row in GRID))
    assert {"qp.duplicates", "qp.recovery_ticks", "qp.retry_exhausted",
            "link.rejected"} <= seen
    assert {row[3][0] for row in GRID} == {"done", "aborted", "failed"}


def test_registration_rows_reach_the_retry_paths():
    """No fault fires in a ``hugepage_deplete_after`` row (its buffers
    sit on small pages), so its app ticks are the clean run's.  Endpoint
    setup lies outside the profiled window: a ``reg_transient`` row that
    finishes later than the clean run backed off a rendezvous
    registration and then succeeded.  A 48 KB registration that still
    fails after the last attempt is the user buffer, not the setup slab,
    giving up mid-run."""
    clean = {row[0]: row[3][1] for row in GRID
             if row[1].startswith("hugepage_deplete_after")}
    backed_off = {row[0] for row in GRID
                  if row[1].startswith("reg_transient")
                  and row[3][0] == "done" and row[3][1] > clean[row[0]]}
    assert backed_off == {"write", "read"}
    exhausted = {row[0] for row in GRID
                 if row[3][0] == "failed" and "+49152]" in row[3][1]
                 and "still failing after 5 attempts" in row[3][1]}
    assert exhausted == {"write", "read"}


def test_receiver_forgets_retired_sequence_numbers():
    """The receiver's record of processed messages (``_rx_seen``, which
    re-acks a duplicate) must not outlive the sender's interest in them:
    once every sequence number is retired, both tables are empty."""
    outcome, cluster = _mpi_cluster_run("link_loss=0.001", 1, "write",
                                        n_msgs=200, size=64 * KB)
    assert outcome[0] == "done"
    for node in cluster.nodes:
        assert node.hca._outstanding == {}
        assert node.hca._rx_seen == {}


def _late_receive(rnr_retry, post_after_us=100.0):
    """One 4 KB send whose receive WR is posted *post_after_us* after
    the receiver registered its buffer, far past the 20 us ack timeout.

    The plan is active (it attaches the fault machinery) but its only
    knob never fires on the link.
    """
    plan = FaultPlan(hugepage_deplete_after=1_000_000, rnr_retry=rnr_retry,
                     ack_timeout_ns=20_000.0)
    cluster = Cluster(presets.opteron_infinihost_pcie(), 2, fault_plan=plan)
    k = cluster.kernel
    a, b = cluster.nodes
    pa, pb = a.new_process(), b.new_process()
    buf_a = pa.aspace.mmap(MB).start
    buf_b = pb.aspace.mmap(MB).start
    pd_a, pd_b = ProtectionDomain.fresh(), ProtectionDomain.fresh()
    sa, ra, sb, rb = (CompletionQueue(k) for _ in range(4))
    qa = a.hca.create_qp(pd_a, sa, ra)
    qb = b.hca.create_qp(pd_b, sb, rb)
    HCA.connect_pair(qa, a.hca, qb, b.hca)
    got = {}

    def sender():
        mr = yield from a.hca.register_memory(pa.aspace, pd_a, buf_a, MB)
        yield from a.hca.post_send(
            qa, SendWR(wr_id=1, sges=[SGE(buf_a, 4 * KB, mr.lkey)],
                       payload="LATE"))
        wc = yield from a.hca.wait_completion(sa)
        got["send"] = (wc.status, k.now)

    def receiver():
        mr = yield from b.hca.register_memory(pb.aspace, pd_b, buf_b, MB)
        yield k.timeout(cluster.clock.ns_to_ticks(post_after_us * 1000))
        yield from b.hca.post_recv(
            qb, RecvWR(wr_id=2, sges=[SGE(buf_b, 8 * KB, mr.lkey)]))
        wc = yield from b.hca.wait_completion(rb)
        got["recv"] = (wc.status, wc.payload, k.now)

    k.process(sender())
    k.process(receiver())
    k.run()
    return got, qa.state, _faults(cluster)


class TestRNR:
    def test_infinite_rnr_retry_waits_for_the_receive(self):
        assert _late_receive(7) == (
            {"send": ("success", 40637),
             "recv": ("success", "LATE", 40464)},
            "RTS",
            {"qp.rnr_naks": 5},
        )

    def test_exhausted_rnr_retry_aborts_and_drops_the_late_ack(self):
        assert _late_receive(1) == (
            {"send": ("rnr-retry-exceeded-error", 27741),
             "recv": ("success", "LATE", 40464)},
            "SQE",
            {"qp.retry_exhausted": 1, "qp.rnr_naks": 2, "qp.stale_acks": 1},
        )
