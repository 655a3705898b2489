"""The §4 verbs-level microbenchmark (Figs 3 and 4).

    "We implemented a test case that measures the duration of send and
     receive operations over OpenIB between two dedicated systems in
     terms of reliable connection based on the following parameters:
     offset ... sge_size ... sges ...  For each combination of those
     parameters this test case measures the elapsed time in time base
     register (TBR) ticks for post and poll operations separately.  The
     post operation covers step 1, while the poll operation measures
     steps 2-4."

Layout matches the paper: each SGE's data buffer starts *offset* bytes
into its own memory page, and the total message size is
``sges × sge_size``.  Ran on the System p preset by default (the paper
used "two IBM low-end System p with IBM InfiniBand eHCA").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.ib.hca import HCA
from repro.ib.verbs import SGE, CompletionQueue, ProtectionDomain, RecvWR, SendWR
from repro.mem.physical import PAGE_4K
from repro.systems.machine import Cluster, MachineSpec
from repro.systems import presets


@dataclass(frozen=True)
class WorkRequestTiming:
    """Measured post and poll durations (TBR ticks) for one parameter
    combination, in the steady state (warm caches)."""

    sges: int
    sge_size: int
    offset: int
    post_ticks: int
    poll_ticks: int

    @property
    def total_ticks(self) -> int:
        """Post + poll: one work request end to end."""
        return self.post_ticks + self.poll_ticks


def measure_send(
    spec: Optional[MachineSpec] = None,
    sges: int = 1,
    sge_size: int = 64,
    offset: int = 0,
    repeats: int = 4,
) -> WorkRequestTiming:
    """Measure one (sges, sge_size, offset) combination.

    Buffers are registered up front (the test isolates work-request
    costs, not registration); *repeats* iterations warm the ATT and the
    last iteration is reported.
    """
    if sges < 1 or sge_size < 1:
        raise ValueError("need at least one SGE of at least one byte")
    if not 0 <= offset < PAGE_4K:
        raise ValueError(f"offset {offset} outside the first page")
    if spec is None:
        spec = presets.systemp_ehca()
    cluster = Cluster(spec, n_nodes=2)
    k = cluster.kernel
    node_a, node_b = cluster.nodes
    proc_a = node_a.new_process("sender")
    proc_b = node_b.new_process("receiver")

    # one page-aligned slot per SGE so each element starts `offset` into
    # its own page (slots widen for elements bigger than a page)
    stride = ((offset + sge_size + PAGE_4K - 1) // PAGE_4K) * PAGE_4K
    span = sges * stride + PAGE_4K
    buf_a = proc_a.aspace.mmap(span, name="sge-src").start
    buf_b = proc_b.aspace.mmap(span, name="sge-dst").start

    pd_a, pd_b = ProtectionDomain.fresh(), ProtectionDomain.fresh()
    scq = CompletionQueue(k)
    rcq_a = CompletionQueue(k)
    scq_b = CompletionQueue(k)
    rcq = CompletionQueue(k)
    qp_a = node_a.hca.create_qp(pd_a, scq, rcq_a)
    qp_b = node_b.hca.create_qp(pd_b, scq_b, rcq)
    HCA.connect_pair(qp_a, node_a.hca, qp_b, node_b.hca)

    out: Dict[str, int] = {}

    def sge_list(base: int, lkey: int) -> List[SGE]:
        return [
            SGE(addr=base + i * stride + offset, length=sge_size, lkey=lkey)
            for i in range(sges)
        ]

    def receiver():
        mr = yield from node_b.hca.register_memory(proc_b.aspace, pd_b, buf_b, span)
        for _ in range(repeats):
            yield from node_b.hca.post_recv(
                qp_b, RecvWR(wr_id=7, sges=sge_list(buf_b, mr.lkey))
            )
            yield from node_b.hca.wait_completion(rcq)

    def sender():
        mr = yield from node_a.hca.register_memory(proc_a.aspace, pd_a, buf_a, span)
        for i in range(repeats):
            t0 = k.now
            yield from node_a.hca.post_send(
                qp_a, SendWR(wr_id=i, sges=sge_list(buf_a, mr.lkey))
            )
            t1 = k.now
            yield from node_a.hca.wait_completion(scq)
            t2 = k.now
            out["post"] = t1 - t0
            out["poll"] = t2 - t1

    k.process(receiver())
    k.process(sender())
    k.run()
    return WorkRequestTiming(
        sges=sges,
        sge_size=sge_size,
        offset=offset,
        post_ticks=out["post"],
        poll_ticks=out["poll"],
    )

