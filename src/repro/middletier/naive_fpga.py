"""The naive FPGA SmartNIC middle tier (Fig. 1c).

Both the control logic *and* the compression are cast into FPGA
hardware: headers are parsed by gateware, payloads never leave device
memory, and the host CPU is not involved at all. Throughput is
excellent — the design's fatal flaw is flexibility (§3.3): the control
plane that clouds update ~7 times in 4 months is frozen into hardware,
which this class records as ``flexible = False``.
"""

from __future__ import annotations

import typing

from repro.compression.model import FPGA_ENGINE, CompressorProfile
from repro.middletier.cluster import Testbed
from repro.middletier.stages import DeviceMemoryMiddleTier

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Simulator


class NaiveFpgaMiddleTier(DeviceMemoryMiddleTier):
    """Everything-in-gateware offload; the paper's Fig. 1c strawman."""

    design_name = "FPGA-only"
    #: the control plane is hardware: fast, but it cannot iterate.
    flexible = False

    def __init__(
        self,
        sim: "Simulator",
        testbed: Testbed,
        n_workers: int = 1,
        address: str = "tier0",
        engine_profile: CompressorProfile = FPGA_ENGINE,
    ) -> None:
        platform = testbed.platform
        spec = platform.smartds  # same VCU128 board as SmartDS
        self._parse_time = spec.hw_parse_time
        self._memory = (spec.hbm_rate, spec.hbm_lanes, "hbm")
        self._port_rate = platform.network.port_rate
        # `n_workers` is the number of parallel hardware pipelines, each
        # with a dedicated compression engine.
        self._engine_profile = engine_profile
        self._engine_capacity = n_workers
        super().__init__(sim, testbed, n_workers, address=address)
