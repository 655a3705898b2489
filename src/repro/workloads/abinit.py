"""The Abinit-like application workload (§2 / §3.2 item 2).

The paper's two allocator claims:

- "For some instrumented applications we measured allocation benefits of
  up to 10 times with our library (e.g. for Abinit)" (§2);
- "With Abinit, the time consumption of allocation/deallocation
  functions is significantly lower with our library compared to the libc
  allocator and it improved application runtime by 1.5 %" (§3.2).

The first is pure allocator time (see :mod:`repro.alloc.traces`); the
second needs allocator time in *application context* — this module runs
the allocation trace interleaved with compute phases over the allocated
arrays, so allocator time, placement-dependent compute time and total
runtime can all be reported for any allocator choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.alloc.traces import MB, abinit_like_records
from repro.core.library import preload_hugepage_library
from repro.systems.machine import Machine, MachineSpec
from repro.engine.core import SimKernel


@dataclass
class AbinitResult:
    """Simulated outcome of one Abinit-like run."""

    allocator: str
    total_ns: float
    alloc_ns: float
    compute_ns: float

    @property
    def alloc_fraction(self) -> float:
        """Share of runtime spent inside the allocator."""
        return self.alloc_ns / self.total_ns if self.total_ns else 0.0


def run_abinit(
    spec: MachineSpec,
    hugepages: bool,
    iterations: int = 12,
    compute_passes: int = 2,
    seed: int = 42,
) -> AbinitResult:
    """Run the Abinit-like SCF loop on a fresh machine.

    Per SCF iteration: allocate the work arrays (large wavefunction
    temporaries, medium scratch, small objects), run *compute_passes*
    streaming sweeps over the large arrays (FFT-like passes), free the
    scope.  With ``hugepages=True`` the paper's library is preloaded;
    placement then also changes the compute time through the prefetcher,
    which is how allocator choice shows up as total-runtime improvement.
    """
    kernel = SimKernel()
    machine = Machine(kernel, spec)
    proc = machine.new_process("abinit")
    if hugepages:
        preload_hugepage_library(proc)

    # replay the trace manually so compute runs inside each iteration
    pointers: Dict[int, int] = {}
    sizes: Dict[int, int] = {}
    alloc_ns = 0.0
    compute_ns = 0.0
    live_large: List[int] = []

    stats = proc.allocator.stats
    for op, handle, size in abinit_like_records(iterations=iterations, seed=seed):
        if op == "malloc":
            before = stats.total_ns
            pointers[handle] = proc.malloc(size)
            sizes[handle] = size
            alloc_ns += stats.total_ns - before
            if size >= 1 * MB:
                live_large.append(handle)
        else:
            if handle in live_large:
                # end of scope approaching: run the FFT-like sweeps over
                # every live large array before tearing the scope down
                if handle == live_large[-1]:
                    for _ in range(compute_passes):
                        for h in live_large:
                            cost = proc.engine.stream(pointers[h], sizes[h])
                            compute_ns += cost.ns
                live_large.remove(handle)
            before = stats.total_ns
            proc.free(pointers.pop(handle))
            sizes.pop(handle)
            alloc_ns += stats.total_ns - before
    return AbinitResult(
        allocator=proc.allocator.name,
        total_ns=alloc_ns + compute_ns,
        alloc_ns=alloc_ns,
        compute_ns=compute_ns,
    )


def compare_allocators(
    spec_factory: Callable[[], MachineSpec],
    iterations: int = 12,
) -> Dict[str, AbinitResult]:
    """libc vs the hugepage library on identical machines/traces."""
    return {
        "libc": run_abinit(spec_factory(), hugepages=False, iterations=iterations),
        "hugepage_lib": run_abinit(spec_factory(), hugepages=True,
                                   iterations=iterations),
    }
