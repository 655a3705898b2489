"""Communication-cost breakdowns: making the remaining bottlenecks visible.

§6 closes with "we believe that with a further analysis, remaining
bottlenecks can be made visible" — this module is that analysis tool.
It decomposes one message's end-to-end cost into the pipeline components
the simulator charges (post, registration, WQE fetch, gather, wire,
scatter, completion), so a user can see *where* a configuration spends
its time and what a placement change would buy before running a full
simulation.  Every term is a call into the model the simulator charges,
on the frozen config that holds its parameters:

- post: :meth:`HCAConfig.post_send_ns` with :meth:`BusConfig.doorbell_ns`;
- registration: :meth:`OpenIBDriver.plan_uniform` for the entry count,
  :meth:`RegistrationCosts.register_ns` per side;
- WQE fetch: :meth:`BusConfig.wqe_fetch_ns`;
- gather and scatter: ``dma_setup_ns``, :meth:`BusConfig.bursts_for`
  times ``burst_ns`` and :meth:`BusConfig.stream_ns`, plus the ATT
  misses at ``ATTConfig.fetch_ns``;
- wire: :meth:`LinkConfig.transfer_ns`;
- completion: the adapter's ``process_ns``, ``cqe_write_ns`` and
  ``poll_ns`` and the RC ack, :meth:`LinkConfig.ack_ns`.

The decomposition is analytic (steady-state, cold ATT for the page-count
dependent parts), so it is instantaneous; the simulator remains the
ground truth for contention effects.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Dict, Optional

from repro.ib.driver import OpenIBDriver
from repro.ib.hca import HCAConfig
from repro.mem.physical import PAGE_2M, PAGE_4K
from repro.systems.machine import MachineSpec


@dataclass(frozen=True)
class MessageBreakdown:
    """Per-component cost of one message (nanoseconds)."""

    post_ns: float
    registration_ns: float
    wqe_fetch_ns: float
    gather_ns: float
    wire_ns: float
    scatter_ns: float
    completion_ns: float

    @property
    def total_ns(self) -> float:
        """Sum of the serial components (upper bound: the simulator
        overlaps gather/wire/scatter)."""
        return sum(getattr(self, f.name) for f in fields(self))

    @property
    def critical_path_ns(self) -> float:
        """Pipeline estimate: overlapped gather/wire/scatter."""
        return (
            self.post_ns
            + self.registration_ns
            + self.wqe_fetch_ns
            + max(self.gather_ns, self.wire_ns, self.scatter_ns)
            + self.completion_ns
        )

    def dominant(self) -> str:
        """The costliest component's name."""
        return max(fields(self), key=lambda f: getattr(self, f.name)).name


def breakdown_rdma_message(
    spec: MachineSpec,
    size: int,
    page_size: int = PAGE_4K,
    registration_cached: bool = False,
    att_warm: bool = False,
    hca: Optional[HCAConfig] = None,
) -> MessageBreakdown:
    """Decompose one RDMA-rendezvous message on machine *spec*.

    ``registration_cached`` models a lazy-deregistration hit (both
    sides); ``att_warm`` models a repeated transfer whose translations
    are resident (only possible when they fit the ATT cache).
    """
    if size <= 0:
        raise ValueError(f"message size must be positive, got {size}")
    if page_size not in (PAGE_4K, PAGE_2M):
        raise ValueError(f"unsupported page size {page_size}")
    hca = hca if hca is not None else spec.hca
    bus, link, reg, att = spec.bus, spec.link, spec.reg_costs, spec.att

    pages = (size + page_size - 1) // page_size
    _, entries = OpenIBDriver(spec.hugepage_aware_driver).plan_uniform(
        page_size, pages)
    registration = (0.0 if registration_cached
                    else 2 * reg.register_ns(page_size, pages, entries))
    att_misses = 0 if (att_warm and entries <= att.entries) else entries
    # one DMA each way from a page-aligned buffer (no offset adjustment)
    dma = (bus.dma_setup_ns + bus.bursts_for(0, size) * bus.burst_ns
           + bus.stream_ns(size) + att_misses * att.fetch_ns)
    return MessageBreakdown(
        post_ns=hca.post_send_ns(1, bus.doorbell_ns()),
        registration_ns=registration,
        wqe_fetch_ns=bus.wqe_fetch_ns(1),
        gather_ns=dma,
        wire_ns=link.transfer_ns(size),
        scatter_ns=dma,
        completion_ns=(hca.process_ns + hca.cqe_write_ns + hca.poll_ns
                       + link.ack_ns()),
    )


def placement_comparison(
    spec: MachineSpec, size: int, registration_cached: bool = False
) -> Dict[str, MessageBreakdown]:
    """Breakdowns for the two placements side by side."""
    return {
        "4k": breakdown_rdma_message(spec, size, PAGE_4K,
                                     registration_cached=registration_cached),
        "2m": breakdown_rdma_message(spec, size, PAGE_2M,
                                     registration_cached=registration_cached),
    }


def phase_delta_table(tracer: Any, min_total: int = 0) -> str:
    """Render a traced run's per-phase counter-delta table.

    *tracer* is a :class:`repro.trace.Tracer` whose run has finished
    (and been flushed).  Rows are span names plus the
    ``(unattributed)`` bucket; columns are the counters that moved,
    widest-moving first, capped at six with the rest summed into an
    ``(other)`` column.  The column sums equal the run's final
    aggregate counter totals exactly — the property the trace tests
    pin — so this table is a faithful decomposition, not a sampling.
    Counters whose total moved *min_total* or less are folded into
    ``(other)``.
    """
    table = tracer.phase_table()
    totals = tracer.counter_totals()
    if not table:
        return "(no counter deltas traced)"
    ranked = sorted(totals, key=lambda k: (-abs(totals[k]), k))
    shown = [k for k in ranked if abs(totals[k]) > min_total][:6]
    other = [k for k in ranked if k not in shown]
    header = ["phase"] + shown + (["(other)"] if other else [])
    rows = []
    for phase, deltas in table.items():
        row = [phase] + [str(deltas.get(k, 0)) for k in shown]
        if other:
            row.append(str(sum(deltas.get(k, 0) for k in other)))
        rows.append(row)
    total_row = ["(total)"] + [str(totals.get(k, 0)) for k in shown]
    if other:
        total_row.append(str(sum(totals.get(k, 0) for k in other)))
    rows.append(total_row)
    widths = [max(len(header[i]), max(len(r[i]) for r in rows))
              for i in range(len(header))]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(header))]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(
            cell.ljust(widths[i]) if i == 0 else cell.rjust(widths[i])
            for i, cell in enumerate(row)
        ))
    return "\n".join(lines)
