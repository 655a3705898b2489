"""Cross-layer invariant auditor.

Checks the relationships *between* the simulator's layers that no single
layer can see broken on its own:

- every registered MR's pages are mapped and pinned in some owning
  address space, and every ATT cache entry translates a live region
  within its uploaded entry range;
- every TLB entry whose virtual page still belongs to a live VMA is
  backed by a leaf PTE of the matching page size, and every data-cache
  line points into physical memory;
- allocator metadata is sound: heap blocks non-overlapping with
  consistent linkage, fastbin/sorted-bin members real, the hugepage
  library's free list acyclic/sorted and disjoint from live blocks;
- the event heap is time-monotonic and a well-formed heap;
- QP/CQ bookkeeping balances posted against completed work requests.

Runnable standalone (the drivers' ``--audit`` flag), at every snapshot
boundary (:class:`repro.checkpoint.RunCheckpointer` calls
:func:`assert_clean` before saving), and directly from tests that
deliberately corrupt state to prove each check fires.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.engine.core import item_name
from repro.mem.physical import PAGE_2M, PAGE_4K


@dataclass
class Violation:
    """One broken invariant, with enough context to debug it."""

    check: str
    location: str
    message: str
    context: Dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        ctx = ""
        if self.context:
            pairs = ", ".join(f"{k}={v!r}" for k, v in sorted(self.context.items()))
            ctx = f" ({pairs})"
        return f"[{self.check}] {self.location}: {self.message}{ctx}"


class AuditError(Exception):
    """Raised by :func:`assert_clean` when any invariant is broken."""

    def __init__(self, violations: List[Violation], label: str = "cluster"):
        self.violations = violations
        super().__init__(
            f"audit of {label} found {len(violations)} violation(s):\n"
            + render(violations)
        )


def render(violations: List[Violation]) -> str:
    """Render violations one per line (empty string when clean)."""
    return "\n".join(str(v) for v in violations)


# ---------------------------------------------------------------------------
# engine
# ---------------------------------------------------------------------------

def audit_kernel(kernel, label: str = "kernel") -> List[Violation]:
    """Event-heap invariants: time monotonicity, seq sanity and the heap
    property of the kernel's pending-event list."""
    violations = []
    queue = kernel._queue
    for when, priority, seq, ev in queue:
        if when < kernel._now:
            violations.append(Violation(
                check="event-heap", location=label,
                message=f"event scheduled in the past (t={when} < now={kernel._now})",
                context={"seq": seq, "priority": priority, "type": item_name(ev)},
            ))
        if seq > kernel._seq:
            violations.append(Violation(
                check="event-heap", location=label,
                message=f"event seq {seq} exceeds kernel seq {kernel._seq}",
                context={"when": when},
            ))
    seqs = [e[2] for e in queue]
    if len(set(seqs)) != len(seqs):
        violations.append(Violation(
            check="event-heap", location=label,
            message="duplicate event sequence numbers in the event heap",
            context={"entries": len(queue)},
        ))
    for i in range(len(queue)):
        for child in (2 * i + 1, 2 * i + 2):
            if child < len(queue) and queue[child][:3] < queue[i][:3]:
                violations.append(Violation(
                    check="event-heap", location=label,
                    message=f"heap property broken at index {i} (child {child} sorts first)",
                    context={"parent": queue[i][:3], "child": queue[child][:3]},
                ))
    return violations


# ---------------------------------------------------------------------------
# memory / IB
# ---------------------------------------------------------------------------

def _audit_mrs(machine, label: str) -> List[Violation]:
    violations = []
    procs = machine.processes
    for mr in machine.hca._mrs_by_lkey.values():
        if not mr.registered:
            continue
        # separate per-process address spaces may reuse virtual addresses,
        # so the MR passes if *any* process fully maps and pins its range
        best_reason = None
        satisfied = False
        for proc in procs:
            if proc.aspace.find_vma(mr.vaddr) is None:
                continue
            try:
                entries = list(proc.aspace.page_table.pages_in_range(mr.vaddr, mr.length))
            except Exception:
                best_reason = best_reason or (
                    f"range [{mr.vaddr:#x}, +{mr.length}) is partially unmapped "
                    f"in {proc.name}"
                )
                continue
            unpinned = [e.vaddr for e in entries if e.pin_count < 1]
            if unpinned:
                best_reason = (
                    f"page {unpinned[0]:#x} of registered range is not pinned "
                    f"in {proc.name}"
                )
                continue
            satisfied = True
            break
        if not satisfied:
            violations.append(Violation(
                check="mr-pinning", location=f"{label}/MR{mr.mr_id}",
                message=best_reason or "no process maps the registered range",
                context={"vaddr": hex(mr.vaddr), "length": mr.length,
                         "lkey": hex(mr.lkey), "entries": mr.n_entries},
            ))
    return violations


def _audit_att(machine, label: str) -> List[Violation]:
    violations = []
    live = {mr.mr_id: mr for mr in machine.hca._mrs_by_lkey.values() if mr.registered}
    for mr_id, entry_index in machine.att.keys():
        mr = live.get(mr_id)
        if mr is None:
            violations.append(Violation(
                check="att-stale", location=f"{label}/att",
                message=f"cached translation for unknown or deregistered MR {mr_id}",
                context={"entry_index": entry_index},
            ))
        elif not (0 <= entry_index < mr.n_entries):
            violations.append(Violation(
                check="att-stale", location=f"{label}/att",
                message=(
                    f"entry index {entry_index} outside MR {mr_id}'s "
                    f"uploaded range [0, {mr.n_entries})"
                ),
                context={"entry_page_size": mr.entry_page_size},
            ))
    return violations


def _audit_proc_memory(proc, machine, label: str) -> List[Violation]:
    violations = []
    aspace = proc.aspace
    # TLB: a vpage still inside a live VMA must have a live PTE at the
    # TLB's page size.  A vpage with no VMA is benign staleness — real
    # hardware keeps entries after munmap until eviction or shootdown.
    for size, tlb_name in ((PAGE_4K, "tlb.4k"), (PAGE_2M, "tlb.2m")):
        table = aspace.page_table.leaf_table(size)
        for vpage in proc.engine.tlb.keys(size):
            vma = aspace.find_vma(vpage)
            if vma is not None and vpage not in table:
                violations.append(Violation(
                    check="tlb-dangling", location=f"{label}/{tlb_name}",
                    message=(
                        f"TLB holds {vpage:#x} inside live VMA "
                        f"[{vma.start:#x}, +{vma.length}) but no "
                        f"{size}-byte PTE backs it"
                    ),
                    context={"vma_kind": vma.kind, "vma_page_size": vma.page_size},
                ))
    total = machine.physical.total_bytes
    line_size = proc.engine.cache.config.line_size
    for line in proc.engine.cache.keys():
        paddr = line * line_size
        if not (0 <= paddr < total):
            violations.append(Violation(
                check="cache-backing", location=f"{label}/cache",
                message=f"cached line at paddr {paddr:#x} outside physical memory",
                context={"total_bytes": total},
            ))
    return violations


# ---------------------------------------------------------------------------
# allocators
# ---------------------------------------------------------------------------

def _audit_libc(proc, label: str) -> List[Violation]:
    violations = []
    libc = proc.libc
    blocks = libc._blocks
    ordered = sorted(blocks.values(), key=lambda b: b.addr)
    for a, b in zip(ordered, ordered[1:]):
        if a.addr + a.size > b.addr:
            violations.append(Violation(
                check="alloc-overlap", location=f"{label}/libc",
                message=f"heap blocks {a.addr:#x}(+{a.size}) and {b.addr:#x} overlap",
                context={"a_free": a.free, "b_free": b.free},
            ))
    for block in ordered:
        for direction, neighbour in (("next", block.next), ("prev", block.prev)):
            if neighbour is None:
                continue
            other = blocks.get(neighbour)
            if other is None:
                violations.append(Violation(
                    check="alloc-linkage", location=f"{label}/libc",
                    message=f"block {block.addr:#x}.{direction} points at "
                            f"missing block {neighbour:#x}",
                ))
            else:
                back = other.prev if direction == "next" else other.next
                if back != block.addr:
                    violations.append(Violation(
                        check="alloc-linkage", location=f"{label}/libc",
                        message=(
                            f"asymmetric links: {block.addr:#x}.{direction} -> "
                            f"{neighbour:#x} but its back-link is "
                            f"{back if back is None else hex(back)}"
                        ),
                    ))
    for size, addrs in libc._fastbins.items():
        for addr in addrs:
            block = blocks.get(addr)
            if block is None or not block.in_fastbin:
                violations.append(Violation(
                    check="alloc-freelist", location=f"{label}/libc",
                    message=f"fastbin[{size}] references "
                            f"{'missing' if block is None else 'non-fastbin'} "
                            f"block {addr:#x}",
                ))
    for size, addr in libc._sorted_bin:
        block = blocks.get(addr)
        if block is None or not block.free or block.size != size:
            violations.append(Violation(
                check="alloc-freelist", location=f"{label}/libc",
                message=f"sorted bin entry ({size}, {addr:#x}) does not match a "
                        f"free block of that size",
                context={"exists": block is not None,
                         "free": getattr(block, "free", None),
                         "actual_size": getattr(block, "size", None)},
            ))
    return violations


def _audit_hugepage_lib(proc, label: str) -> List[Violation]:
    violations = []
    alloc = proc.allocator
    if alloc is proc.libc:
        return violations
    freelist = alloc.management.freelist
    if not freelist.invariant_ok():
        violations.append(Violation(
            check="alloc-freelist", location=f"{label}/hugepage_lib",
            message="chunk free list is unsorted, misaligned or self-overlapping",
            context={"extents": [(hex(e.start), e.n_chunks) for e in freelist.extents][:8]},
        ))
    from repro.alloc.freelist import CHUNK_SIZE

    live = sorted(alloc.management._live.items())
    for start, n_chunks in live:
        end = start + n_chunks * CHUNK_SIZE
        for extent in freelist.extents:
            if extent.start < end and start < extent.end:
                violations.append(Violation(
                    check="alloc-overlap", location=f"{label}/hugepage_lib",
                    message=(
                        f"free extent [{extent.start:#x}, {extent.end:#x}) overlaps "
                        f"live block [{start:#x}, {end:#x})"
                    ),
                    context={"live_chunks": n_chunks, "free_chunks": extent.n_chunks},
                ))
    return violations


# ---------------------------------------------------------------------------
# QP / CQ bookkeeping
# ---------------------------------------------------------------------------

def _audit_qps(machine, label: str) -> List[Violation]:
    violations = []
    hca = machine.hca
    outstanding_per_qp: Dict[int, int] = {}
    for qp, _wr in hca._outstanding.values():
        outstanding_per_qp[qp.qp_num] = outstanding_per_qp.get(qp.qp_num, 0) + 1
    for qp in hca._qps.values():
        in_use = qp.wr_slots.in_use
        if in_use > qp.max_send_wr:
            violations.append(Violation(
                check="qp-balance", location=f"{label}/QP{qp.qp_num}",
                message=f"{in_use} WR slots in use exceeds queue depth {qp.max_send_wr}",
            ))
        accounted = len(qp.send_q.items) + outstanding_per_qp.get(qp.qp_num, 0)
        if in_use < accounted:
            violations.append(Violation(
                check="qp-balance", location=f"{label}/QP{qp.qp_num}",
                message=(
                    f"{accounted} WRs queued or outstanding but only "
                    f"{in_use} send slots held — completions outran posts"
                ),
                context={"queued": len(qp.send_q.items),
                         "outstanding": outstanding_per_qp.get(qp.qp_num, 0)},
            ))
        stores = [("send_q", qp.send_q), ("recv_q", qp.recv_q)]
        for cq_name, cq in (("send_cq", qp.send_cq), ("recv_cq", qp.recv_cq)):
            if cq is not None:
                stores.append((cq_name, cq.store))
        for store_name, store in stores:
            if store._items and store._getters:
                violations.append(Violation(
                    check="qp-balance", location=f"{label}/QP{qp.qp_num}/{store_name}",
                    message=(
                        f"{len(store._items)} items waiting while "
                        f"{len(store._getters)} getters block — dispatch wedged"
                    ),
                ))
    return violations


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def audit_machine(machine, label: str = "") -> List[Violation]:
    """All per-node checks for one :class:`~repro.systems.machine.Machine`."""
    label = label or machine.name
    violations = []
    violations += _audit_mrs(machine, label)
    violations += _audit_att(machine, label)
    violations += _audit_qps(machine, label)
    for proc in machine.processes:
        proc_label = f"{label}/{proc.name}"
        violations += _audit_proc_memory(proc, machine, proc_label)
        violations += _audit_libc(proc, proc_label)
        violations += _audit_hugepage_lib(proc, proc_label)
    return violations


def audit_cluster(cluster, label: str = "cluster") -> List[Violation]:
    """Every invariant across *cluster*, most severe checks first."""
    violations = audit_kernel(cluster.kernel, label=f"{label}/kernel")
    for node in cluster.nodes:
        violations += audit_machine(node, label=f"{label}/{node.name}")
    return violations


def assert_clean(cluster, label: str = "cluster") -> None:
    """Raise :class:`AuditError` unless *cluster* passes every check."""
    violations = audit_cluster(cluster, label=label)
    if violations:
        raise AuditError(violations, label=label)
