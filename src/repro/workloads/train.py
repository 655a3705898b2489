"""A verbs-level message train: the event-kernel benchmark.

The figure drivers are dominated by host-side cost modelling (per-page
copies, TLB walks); this driver is the opposite regime — the one the
paper's §4 pipeline actually lives in.  One QP pushes a *train* of
back-to-back messages through the full adapter pipeline (post, WQE
fetch, gather, wire, scatter, CQE, ack) with a bounded completion
window, so nearly all simulation work is event-kernel work: scheduling,
dispatch, resource grants, completions.  ``repro perf`` times it as the
``train`` benchmark.

The driver also carries the closed-form model it is pinned against:
with ``window=1`` the steady-state per-message period is a pure sum of
pipeline stages (every stage tick-rounded exactly as the DES rounds it,
the wire part through :meth:`repro.ib.link.LinkConfig.train_ns`), and
``tests/test_wire_train.py`` asserts the simulated train matches it
tick-exactly.  That is the contract that lets the adapter's delivery
path (see "Callback chains" in :mod:`repro.ib.hca`) claim analytic
costing: the DES and the closed form agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.ib.hca import HCA
from repro.ib.verbs import SGE, CompletionQueue, ProtectionDomain, RecvWR, SendWR
from repro.mem.physical import PAGE_4K
from repro.systems import presets
from repro.systems.machine import Cluster, MachineSpec


@dataclass(frozen=True)
class TrainResult:
    """One message train, end to end."""

    msg_bytes: int
    count: int
    window: int
    #: first post to last send completion (sender clock)
    total_ticks: int
    #: closed-form steady-state period per message for ``window=1``
    #: (meaningful only in that mode; see :func:`analytic_period_ticks`)
    analytic_period_ticks: int
    tx_messages: int
    rx_messages: int

    @property
    def ticks_per_msg(self) -> float:
        """Mean per-message cost over the train."""
        return self.total_ticks / self.count if self.count else 0.0


def analytic_period_ticks(
    hca_a: HCA, hca_b: HCA, msg_bytes: int, src_addr: int, dst_addr: int
) -> int:
    """Closed-form steady-state period of a ``window=1`` train.

    With one message in flight the pipeline is strictly sequential, so
    the period is the sum of its stages, each rounded to ticks exactly
    where the DES rounds it (one ``ns_to_ticks`` per ``timeout``):
    post + doorbell, WQE fetch, pipeline + first-byte latency, receive
    WQE fetch, ``max(scatter, stream)`` + CQE write, the ack's flight,
    the sender-side CQE write, and the completion poll.  Assumes warm
    ATTs (every message of the train after the first; the first pays the
    cold-miss stalls, which is why the pin in ``tests/test_wire_train``
    compares train *differences*).
    """
    cfg = hca_a.config
    clock = hca_a.clock
    bus_a, bus_b = hca_a.bus.config, hca_b.bus.config
    link = hca_a.link

    post_ns = cfg.post_base_ns + cfg.post_per_sge_ns + bus_a.doorbell_ns()
    gather_ns = (
        bus_a.dma_setup_ns
        + bus_a.bursts_for(src_addr, msg_bytes) * bus_a.burst_ns
        + bus_a.offset_adjust_ns(src_addr)
        + bus_a.stream_ns(msg_bytes)
    )
    # the wire half of the train: LinkConfig.train_ns(b, 1) per message
    stream_ns = max(gather_ns, link.train_ns(msg_bytes, 1))
    scatter_ns = (
        bus_b.dma_setup_ns
        + bus_b.bursts_for(dst_addr, msg_bytes) * bus_b.burst_ns
        + bus_b.offset_adjust_ns(dst_addr)
        + bus_b.stream_ns(msg_bytes)
    )
    return (
        clock.ns_to_ticks(post_ns)
        + clock.ns_to_ticks(bus_a.wqe_fetch_ns(1))
        + clock.ns_to_ticks(cfg.process_ns + link.latency_ns)
        + clock.ns_to_ticks(cfg.recv_wqe_ns)
        + clock.ns_to_ticks(max(scatter_ns, stream_ns) + cfg.cqe_write_ns)
        + clock.ns_to_ticks(link.ack_ns())
        + clock.ns_to_ticks(cfg.cqe_write_ns)
        + clock.ns_to_ticks(cfg.poll_ns)
    )


def run_train(
    spec_factory: Optional[Callable[[], MachineSpec]] = None,
    msg_bytes: int = 1024,
    count: int = 1000,
    window: int = 16,
) -> TrainResult:
    """Drive one message train on a fresh 2-node cluster.

    The sender keeps up to *window* sends outstanding; the receiver
    pre-posts *window* receives and re-posts as completions drain.
    """
    if msg_bytes < 1 or count < 1 or window < 1:
        raise ValueError("msg_bytes, count and window must be >= 1")
    spec = (spec_factory or presets.opteron_infinihost_pcie)()
    cluster = Cluster(spec, n_nodes=2)
    k = cluster.kernel
    node_a, node_b = cluster.nodes
    proc_a = node_a.new_process("train-tx")
    proc_b = node_b.new_process("train-rx")

    span = ((msg_bytes + PAGE_4K - 1) // PAGE_4K) * PAGE_4K + PAGE_4K
    buf_a = proc_a.aspace.mmap(span, name="train-src").start
    buf_b = proc_b.aspace.mmap(span, name="train-dst").start

    pd_a, pd_b = ProtectionDomain.fresh(), ProtectionDomain.fresh()
    scq = CompletionQueue(k)
    rcq_a = CompletionQueue(k)
    scq_b = CompletionQueue(k)
    rcq = CompletionQueue(k)
    qp_a = node_a.hca.create_qp(pd_a, scq, rcq_a)
    qp_b = node_b.hca.create_qp(pd_b, scq_b, rcq)
    HCA.connect_pair(qp_a, node_a.hca, qp_b, node_b.hca)

    out: Dict[str, int] = {}

    def receiver():
        mr = yield from node_b.hca.register_memory(proc_b.aspace, pd_b, buf_b, span)
        sges = [SGE(addr=buf_b, length=msg_bytes, lkey=mr.lkey)]
        posted = min(window, count)
        for i in range(posted):
            yield from node_b.hca.post_recv(qp_b, RecvWR(wr_id=i, sges=sges))
        for _ in range(count):
            yield from node_b.hca.wait_completion(rcq)
            if posted < count:
                yield from node_b.hca.post_recv(
                    qp_b, RecvWR(wr_id=posted, sges=sges)
                )
                posted += 1

    def sender():
        mr = yield from node_a.hca.register_memory(proc_a.aspace, pd_a, buf_a, span)
        sges = [SGE(addr=buf_a, length=msg_bytes, lkey=mr.lkey)]
        t0 = k.now
        inflight = 0
        for i in range(count):
            yield from node_a.hca.post_send(qp_a, SendWR(wr_id=i, sges=sges))
            inflight += 1
            if inflight >= window:
                yield from node_a.hca.wait_completion(scq)
                inflight -= 1
        while inflight:
            yield from node_a.hca.wait_completion(scq)
            inflight -= 1
        out["ticks"] = k.now - t0

    k.process(receiver(), name="train-rx")
    k.process(sender(), name="train-tx")
    k.run()
    return TrainResult(
        msg_bytes=msg_bytes,
        count=count,
        window=window,
        total_ticks=out["ticks"],
        analytic_period_ticks=analytic_period_ticks(
            node_a.hca, node_b.hca, msg_bytes, buf_a, buf_b
        ),
        tx_messages=int(node_a.hca.counters.get("hca.tx_messages", 0)),
        rx_messages=int(node_b.hca.counters.get("hca.rx_messages", 0)),
    )
