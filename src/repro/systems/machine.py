"""Machines, OS processes and clusters: wiring the substrates together.

A :class:`Machine` is one cluster node: physical memory with a hugepage
pool, an I/O bus, an HCA (with ATT cache, registration engine and driver)
and a tick clock — everything shared by the processes on that node.

An :class:`OSProcess` is one MPI rank's worth of OS state: a private
address space, a private TLB/cache/access-engine (each rank runs pinned
to its own core on the paper's 2- and 4-core nodes) and its allocator
stack (libc by default; the hugepage library is "preloaded" by the
:mod:`repro.core.library` facade).

A :class:`Cluster` is N machines joined by point-to-point IB wires on one
shared simulation kernel.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro.alloc.base import AllocatorCostModel
from repro.alloc.libc import LibcAllocator
from repro.analysis.counters import CounterSet
from repro.engine.clock import TickClock
from repro.engine.core import SimKernel
from repro.faults import FaultInjector, FaultPlan
from repro.ib.att import ATTCache, ATTConfig
from repro.ib.bus import BusConfig, BusModel, pci_express_x8
from repro.ib.driver import OpenIBDriver
from repro.ib.hca import HCA, HCAConfig, Wire
from repro.ib.link import LinkConfig
from repro.ib.registration import RegistrationCosts, RegistrationEngine
from repro.mem.access import MemoryAccessEngine
from repro.mem.address_space import AddressSpace
from repro.mem.cache import CacheConfig
from repro.mem.hugetlbfs import HugeTLBfs
from repro.mem.physical import PhysicalMemory
from repro.mem.tlb import TLBConfig
from repro.util import WeakCall

MB = 1024 * 1024


@dataclass(frozen=True)
class MachineSpec:
    """Full parameterisation of one node type."""

    name: str
    ticks_per_us: float = 200.0
    mem_bytes: int = 2048 * MB
    hugepages: int = 512
    fragmentation: float = 1.0
    seed: int = 2006
    cores: int = 4
    tlb: TLBConfig = field(default_factory=TLBConfig)
    cache: CacheConfig = field(default_factory=CacheConfig)
    bus: BusConfig = field(default_factory=pci_express_x8)
    link: LinkConfig = field(default_factory=LinkConfig)
    att: ATTConfig = field(default_factory=ATTConfig)
    hca: HCAConfig = field(default_factory=HCAConfig)
    reg_costs: RegistrationCosts = field(default_factory=RegistrationCosts)
    alloc_costs: AllocatorCostModel = field(default_factory=AllocatorCostModel)
    hugepage_aware_driver: bool = True

    def with_driver(self, hugepage_aware: bool) -> "MachineSpec":
        """A copy with the driver patch toggled (the Xeon experiment)."""
        return replace(self, hugepage_aware_driver=hugepage_aware)


class OSProcess:
    """One process (MPI rank) on a machine.

    The machine owns its processes; a process keeps the node's spec and
    clock, not the machine, and works on after the machine is gone.
    """

    def __init__(self, machine: "Machine", name: str = "proc"):
        self.name = name
        self.counters = CounterSet()
        self.spec = spec = machine.spec
        self.clock = machine.clock
        #: hands a forked child to the machine (see :meth:`fork`)
        self._adopt = WeakCall(machine._adopt)
        self.aspace = AddressSpace(machine.physical, machine.hugetlbfs)
        self.engine = MemoryAccessEngine(
            self.aspace, spec.tlb, spec.cache, machine.clock, self.counters
        )
        self.libc = LibcAllocator(
            self.aspace, cost_model=spec.alloc_costs, counters=self.counters
        )
        #: the active allocator; the hugepage-library facade replaces it
        self.allocator = self.libc

    def malloc(self, size: int) -> int:
        """Allocate through the active allocator."""
        return self.allocator.malloc(size)

    def free(self, vaddr: int) -> None:
        """Free through the active allocator.

        Registration-cache safety comes from the address space's
        ``unmap_hooks``: a free that unmaps (libc's mmap path, heap trim)
        invalidates cached registrations; a free that keeps the mapping
        (the hugepage library's) leaves them valid.
        """
        self.allocator.free(vaddr)

    def fork(self, name: Optional[str] = None) -> "OSProcess":
        """Fork this process: the child gets a Copy-on-Write clone of
        the address space (see :meth:`AddressSpace.fork`) and fresh
        per-core machinery (TLB, cache, counters).

        Allocator metadata is *not* cloned (a simulated child is a new
        program image working over inherited memory); the child must
        allocate its own buffers and may only read-or-CoW-write the
        inherited ranges.  The child joins the machine's processes; once
        the machine is gone, the child is an orphan like its parent.
        """
        child = OSProcess.__new__(OSProcess)
        child.name = name or f"{self.name}-child"
        child.counters = CounterSet()
        child.spec = spec = self.spec
        child.clock = self.clock
        child._adopt = self._adopt
        child.aspace = self.aspace.fork()
        child.engine = MemoryAccessEngine(
            child.aspace, spec.tlb, spec.cache, self.clock, child.counters
        )
        child.libc = LibcAllocator(
            child.aspace, cost_model=spec.alloc_costs, counters=child.counters
        )
        child.allocator = child.libc
        self._adopt(child)
        return child

    def destroy(self) -> None:
        """Tear the process down, releasing its memory."""
        self.aspace.destroy()


class Machine:
    """One cluster node (see module docstring)."""

    def __init__(self, kernel: SimKernel, spec: MachineSpec,
                 name: Optional[str] = None,
                 faults: Optional[FaultInjector] = None):
        self.kernel = kernel
        self.spec = spec
        self.name = name if name is not None else spec.name
        self.clock = TickClock(spec.ticks_per_us)
        self.counters = CounterSet()
        self.faults = faults if (faults is not None and faults.active) else None
        self.physical = PhysicalMemory(
            spec.mem_bytes,
            hugepages=spec.hugepages,
            fragmentation=spec.fragmentation,
            seed=spec.seed,
        )
        self.hugetlbfs = HugeTLBfs(self.physical, faults=self.faults)
        self.bus = BusModel(kernel, spec.bus)
        self.att = ATTCache(spec.att, self.counters)
        self.driver = OpenIBDriver(hugepage_aware=spec.hugepage_aware_driver)
        self.reg_engine = RegistrationEngine(
            self.driver, self.att, spec.reg_costs, self.counters,
            faults=self.faults,
        )
        self.link = spec.link
        self.hca = HCA(
            kernel,
            self.clock,
            self.bus,
            self.link,
            self.att,
            self.reg_engine,
            config=spec.hca,
            counters=self.counters,
            name=f"{self.name}-hca",
            faults=self.faults,
        )
        self._procs: List[OSProcess] = []

    def new_process(self, name: Optional[str] = None) -> OSProcess:
        """Spawn an OS process (an MPI rank's worth of state)."""
        proc = OSProcess(self, name or f"{self.name}-p{len(self._procs)}")
        self._procs.append(proc)
        return proc

    def _adopt(self, proc: OSProcess) -> None:
        """Take in a process forked on this node."""
        self._procs.append(proc)

    @property
    def processes(self) -> List[OSProcess]:
        """Processes spawned on this node."""
        return list(self._procs)


def connect_hcas(hca_a: HCA, hca_b: HCA, kernel: SimKernel) -> Wire:
    """Run one cable between two HCAs (both directions)."""
    wire = Wire(kernel)
    hca_a.attach_wire(hca_b, wire)
    hca_b.attach_wire(hca_a, wire)
    return wire


#: every :class:`Cluster` still alive in this process, held weakly; the
#: hang watchdog's post-mortem reads it through
#: :func:`repro.checkpoint.live_clusters`
LIVE_CLUSTERS: "weakref.WeakSet[Cluster]" = weakref.WeakSet()


class Cluster:
    """N machines of one spec, fully wired, on one kernel."""

    def __init__(self, spec: MachineSpec, n_nodes: int = 2,
                 kernel: Optional[SimKernel] = None,
                 fault_plan: Optional[FaultPlan] = None):
        if n_nodes < 1:
            raise ValueError("a cluster needs at least one node")
        self.kernel = kernel if kernel is not None else SimKernel()
        self.spec = spec
        # one injector for the whole cluster: all fault decisions come
        # from a single seeded stream, and a zero plan attaches nothing
        self.faults: Optional[FaultInjector] = None
        if fault_plan is not None and fault_plan.active:
            self.faults = FaultInjector(fault_plan)
        self.nodes: List[Machine] = [
            Machine(self.kernel, spec, name=f"{spec.name}-n{i}",
                    faults=self.faults)
            for i in range(n_nodes)
        ]
        self.wires: Dict[tuple, Wire] = {}
        for i in range(n_nodes):
            for j in range(i + 1, n_nodes):
                self.wires[(i, j)] = connect_hcas(
                    self.nodes[i].hca, self.nodes[j].hca, self.kernel
                )
        LIVE_CLUSTERS.add(self)
        # re-key the installed tracer (if any) to this cluster's clock
        # and counters; a no-op when tracing is disabled
        from repro import trace

        trace.attach_cluster(self)

    @property
    def clock(self) -> TickClock:
        """The (shared) tick clock."""
        return self.nodes[0].clock

    def aggregate_counters(self) -> Dict[str, int]:
        """Sum of machine + process + fault counters across the cluster,
        keyed in sorted order (reports diff cleanly across runs)."""
        total: Dict[str, int] = {}
        for node in self.nodes:
            for name, value in node.counters.snapshot().items():
                total[name] = total.get(name, 0) + value
            for proc in node.processes:
                for name, value in proc.counters.snapshot().items():
                    total[name] = total.get(name, 0) + value
        if self.faults is not None:
            for name, value in self.faults.counters.snapshot().items():
                total[name] = total.get(name, 0) + value
        return dict(sorted(total.items()))
