"""Middle-tier server designs.

The paper compares four middle-tier architectures (Fig. 1) plus
SmartDS; the repository adds BlueField-3 as a sixth design. This
package implements the five baselines, the stages they are built from,
and the shared write/read-path machinery:

- :class:`~repro.middletier.cpu_only.CpuOnlyMiddleTier` -- Fig. 1a,
  compression on host cores;
- :class:`~repro.middletier.accelerator.AcceleratorMiddleTier` --
  Fig. 1b, FPGA compression behind a second PCIe device (±DDIO);
- :class:`~repro.middletier.naive_fpga.NaiveFpgaMiddleTier` -- Fig. 1c,
  everything offloaded to the SmartNIC (no host flexibility);
- :class:`~repro.middletier.soc_smartnic.BlueField2MiddleTier` --
  Fig. 1d, Arm cores + on-board engine with weak device memory;
- :class:`~repro.middletier.soc_smartnic.BlueField3MiddleTier` --
  §3.4's BlueField-3: Arm cores compress, no engine.

:mod:`repro.middletier.stages` holds the datapath stages every design
composes. The SmartDS middle tier lives in :mod:`repro.core.server`,
built on the SmartDS device and its AAMS API.
"""

from repro.middletier.accelerator import AcceleratorMiddleTier
from repro.middletier.admission import (
    LEVEL_NAMES,
    AdmissionController,
    BrownoutController,
    Bulkhead,
    CircuitBreaker,
    TenantCredits,
)
from repro.middletier.base import MiddleTierServer, ResponseMatcher, RetainedWrite
from repro.middletier.cluster import Testbed
from repro.middletier.cpu_only import CpuOnlyMiddleTier
from repro.middletier.maintenance import (
    HeartbeatMonitor,
    LsmCompactionService,
    SnapshotService,
    probe_delay,
)
from repro.middletier.mapping import AddressMapper
from repro.middletier.naive_fpga import NaiveFpgaMiddleTier
from repro.middletier.retry import RetryPolicy
from repro.middletier.soc_smartnic import BlueField2MiddleTier

__all__ = [
    "AcceleratorMiddleTier",
    "AddressMapper",
    "AdmissionController",
    "BlueField2MiddleTier",
    "BrownoutController",
    "Bulkhead",
    "CircuitBreaker",
    "CpuOnlyMiddleTier",
    "HeartbeatMonitor",
    "LEVEL_NAMES",
    "LsmCompactionService",
    "MiddleTierServer",
    "NaiveFpgaMiddleTier",
    "ResponseMatcher",
    "RetainedWrite",
    "RetryPolicy",
    "SnapshotService",
    "TenantCredits",
    "Testbed",
    "probe_delay",
]
