"""Scatter-gather aggregation strategies for small buffers.

§4's argument: sending *k* small buffers as one work request with *k*
SGEs pays the fixed per-WQE costs (post, doorbell, WQE fetch, pipeline,
CQE, poll) once instead of *k* times — "the sending of 4 SGEs with same
sizes ... is only 14 % more costly" than one.  The alternatives an MPI
library has are separate sends, or packing through the CPU.

:func:`plan_aggregation` chooses between the three by calling the cost
model the simulated HCA charges, so the planner's decisions can be
validated against measured simulation results (see the ablation bench).
Per work request it charges :meth:`HCAConfig.post_send_ns` with
:meth:`BusConfig.doorbell_ns`, :meth:`BusConfig.wqe_fetch_ns`, the
adapter's ``process_ns``, ``cqe_write_ns`` and ``poll_ns``, one DMA
setup, :meth:`HCAConfig.sge_engine_ns` per SGE and one ``burst_ns``
per SGE.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

from repro.core.config import PlacementConfig
from repro.ib.bus import BusConfig
from repro.ib.hca import HCAConfig


class AggregationStrategy(enum.Enum):
    """How to move a batch of small buffers."""

    #: one work request per buffer
    SEPARATE_SENDS = "separate"
    #: one work request, one SGE per buffer (§4's proposal)
    SGE_LIST = "sge"
    #: CPU-copy all buffers into one staging buffer, send one SGE
    CPU_PACK = "pack"


@dataclass(frozen=True)
class AggregationPlan:
    """The planner's verdict for one batch."""

    strategy: AggregationStrategy
    estimated_ns: dict
    n_buffers: int
    total_bytes: int


def estimate_send_overhead_ns(
    n_wrs: int, sges_per_wr: int, hca: HCAConfig, bus: BusConfig
) -> float:
    """Fixed-cost estimate of posting *n_wrs* work requests of
    *sges_per_wr* SGEs each (data streaming excluded — identical across
    strategies; each SGE costs at least its first burst)."""
    per_wr = (
        hca.post_send_ns(sges_per_wr, bus.doorbell_ns())
        + bus.wqe_fetch_ns(sges_per_wr)
        + hca.process_ns
        + hca.cqe_write_ns
        + hca.poll_ns
        + bus.dma_setup_ns
        + sum(hca.sge_engine_ns(i) for i in range(sges_per_wr))
        + sges_per_wr * bus.burst_ns
    )
    return n_wrs * per_wr


def plan_aggregation(
    buffer_sizes: Sequence[int],
    hca: HCAConfig = HCAConfig(),
    bus: BusConfig = None,
    config: PlacementConfig = None,
    copy_ns_per_byte: float = 0.8,
    copy_block_overhead_ns: float = 80.0,
    max_sge: int = 128,
) -> AggregationPlan:
    """Pick the cheapest strategy for a batch of small buffers.

    The CPU-pack estimate charges ``copy_ns_per_byte`` per packed byte
    plus ``copy_block_overhead_ns`` per block (small scattered copies are
    dominated by per-block cold misses, not bulk bandwidth); SGE
    aggregation is capped at *max_sge* elements per work request.
    """
    if not buffer_sizes:
        raise ValueError("need at least one buffer")
    if any(s <= 0 for s in buffer_sizes):
        raise ValueError("buffer sizes must be positive")
    if bus is None:
        from repro.ib.bus import pci_express_x8

        bus = pci_express_x8()
    if config is None:
        config = PlacementConfig()
    n = len(buffer_sizes)
    total = sum(buffer_sizes)
    n_wrs_sge = (n + max_sge - 1) // max_sge
    estimates = {
        AggregationStrategy.SEPARATE_SENDS: estimate_send_overhead_ns(n, 1, hca, bus),
        AggregationStrategy.SGE_LIST: estimate_send_overhead_ns(
            n_wrs_sge, min(n, max_sge), hca, bus
        ),
        AggregationStrategy.CPU_PACK: (
            estimate_send_overhead_ns(1, 1, hca, bus)
            + n * copy_block_overhead_ns
            + total * copy_ns_per_byte
        ),
    }
    best = min(estimates, key=lambda s: estimates[s])
    return AggregationPlan(
        strategy=best,
        estimated_ns={s.value: v for s, v in estimates.items()},
        n_buffers=n,
        total_bytes=total,
    )
