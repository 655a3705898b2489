"""InfiniBand substrate.

Models the host-channel-adapter stack the paper measures:

- :mod:`repro.ib.verbs` — the verbs surface: protection domains, memory
  regions, scatter/gather elements, work requests, queue pairs and
  completion queues.
- :mod:`repro.ib.att` — the adapter's address-translation-table cache,
  whose miss stalls the paper credits for the Xeon bandwidth gain.
- :mod:`repro.ib.bus` — PCI-Express / PCI-X / GX bus models including the
  offset-dependent access costs behind Fig 4.
- :mod:`repro.ib.link` — the IB reliable-connection link (MTU
  segmentation, per-packet cost, full-duplex bandwidth).
- :mod:`repro.ib.registration` — the three-step memory-registration
  pipeline (§3: pin, translate, upload to the NIC).
- :mod:`repro.ib.driver` — the OpenIB-like driver, with the paper's
  hugepage-awareness patch as a toggle.
- :mod:`repro.ib.hca` — the HCA engine: WQE fetch, SGE gather/scatter
  DMA, wire delivery and completion generation, as DES processes.
"""

from repro.ib.att import ATTCache, ATTConfig
from repro.ib.bus import BusConfig, BusModel, gx_bus, pci_express_x8, pci_x_133
from repro.ib.driver import OpenIBDriver
from repro.ib.hca import HCA, HCAConfig, Wire
from repro.ib.link import LinkConfig
from repro.ib.registration import RegistrationCosts, RegistrationEngine
from repro.ib.verbs import (
    SGE,
    CompletionQueue,
    IBVerbsError,
    MemoryRegion,
    ProtectionDomain,
    QueuePair,
    RecvWR,
    SendWR,
    WorkCompletion,
)

__all__ = [
    "ATTCache",
    "ATTConfig",
    "BusConfig",
    "BusModel",
    "CompletionQueue",
    "HCA",
    "HCAConfig",
    "IBVerbsError",
    "LinkConfig",
    "MemoryRegion",
    "OpenIBDriver",
    "ProtectionDomain",
    "QueuePair",
    "RecvWR",
    "RegistrationCosts",
    "RegistrationEngine",
    "SGE",
    "SendWR",
    "Wire",
    "WorkCompletion",
    "gx_bus",
    "pci_express_x8",
    "pci_x_133",
]
