"""An MVAPICH2-like MPI message layer over the simulated verbs stack.

The protocol structure matches what the paper describes for MVAPICH2
0.9.x (§5.1):

- **eager** sends up to 8 KB through pre-registered bounce buffers
  (no user-buffer registration, one copy each side);
- **rendezvous** above that, and **RDMA write** of the user buffer for
  messages larger than 16 KB — "so we only see memory registration
  effects for those buffers";
- a **registration cache** ("lazy deregistration", the pin-down cache of
  Tezuka et al.) that can be toggled, reproducing both Fig 5 cases.

Public surface: :class:`~repro.mpi.api.MPIWorld` (launches rank
programs over a :class:`~repro.systems.machine.Cluster`) and
:class:`~repro.mpi.api.Communicator` (the per-rank handle).
"""

from repro.mpi.api import Communicator, MPIConfig, MPIWorld, RankResult
from repro.mpi.profiler import CallRecord, MPIProfiler
from repro.mpi.regcache import RegistrationCache

__all__ = [
    "CallRecord",
    "Communicator",
    "MPIConfig",
    "MPIProfiler",
    "MPIWorld",
    "RankResult",
    "RegistrationCache",
]
