"""Mini NAS parallel benchmarks: CG, EP, IS, LU, MG (Fig 6).

Each kernel module provides ``program(comm, klass)`` — a rank program
reproducing the original kernel's *communication pattern and byte
volumes* (class-scaled) and its *memory-access personality* (streaming /
multi-region rotation / random scatter phases over really-allocated
buffers), while carrying real miniature numpy data through the simulated
MPI so the run's numerical result is verified.

:func:`repro.workloads.nas.common.run_nas` runs a kernel on a cluster
with or without the preloaded hugepage library and returns the mpiP-style
communication/computation split plus PAPI-style TLB counters.
"""

from repro.workloads.nas.common import NASRunResult, compare_hugepages, run_nas
from repro.workloads.nas import cg, ep, is_, lu, mg

#: the five kernels the paper evaluates (Fig 6)
KERNELS = {
    "CG": cg.program,
    "EP": ep.program,
    "IS": is_.program,
    "LU": lu.program,
    "MG": mg.program,
}

__all__ = ["KERNELS", "NASRunResult", "cg", "compare_hugepages", "ep", "is_",
           "lu", "mg", "run_nas"]
