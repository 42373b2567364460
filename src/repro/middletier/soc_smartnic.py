"""The SoC-based SmartNIC middle tier (Fig. 1d) — BlueField-2.

Everything runs on the SmartNIC: wimpy Arm cores parse headers, the
on-board compression engine (~40 Gb/s) processes payloads, and the
payload crosses the card's weak DDR several times (§3.4). No host
involvement means the lowest unloaded latency, but the engine and the
device memory cap throughput far below the networking ability.
"""

from __future__ import annotations

import typing

from repro.compression.model import BF2_ENGINE, CompressorProfile
from repro.middletier.cluster import Testbed
from repro.middletier.stages import DeviceMemoryMiddleTier, core_stage
from repro.net.message import Message, Payload, compress_payload, decompress_payload
from repro.net.roce import QueuePair

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Simulator

class BlueField2MiddleTier(DeviceMemoryMiddleTier):
    """The paper's "BF2" baseline: SoC SmartNIC with on-board engine."""

    design_name = "BF2"
    #: control plane runs on embedded Arm cores — flexible but wimpy.
    flexible = True

    def __init__(
        self,
        sim: "Simulator",
        testbed: Testbed,
        n_workers: int,
        address: str = "tier0",
        engine_profile: CompressorProfile = BF2_ENGINE,
    ) -> None:
        platform = testbed.platform
        spec = platform.bluefield2
        if n_workers > spec.arm_cores:
            raise ValueError(f"BlueField-2 has {spec.arm_cores} Arm cores, asked for {n_workers}")
        # The Arm core parses the header (it reads it from device DDR,
        # negligible bytes) and posts the engine descriptor.
        self._parse_time = spec.arm_parse_time
        self._memory = (spec.device_memory_rate, spec.device_memory_lanes, "ddr")
        self._port_rate = platform.network.port_rate
        self._engine_profile = engine_profile
        super().__init__(sim, testbed, n_workers, address=address)


class BlueField3MiddleTier(DeviceMemoryMiddleTier):
    """The upcoming BlueField-3 as a middle tier (§3.4's thought experiment).

    No compression engine: the 16 Arm cores do LZ4 themselves at a
    combined ~50 Gb/s against 400 Gb/s of networking. The design shows
    exactly the mismatch the paper argues — plenty of ports, not enough
    compute or device-memory bandwidth behind them.
    """

    design_name = "BF3"
    flexible = True

    def __init__(
        self,
        sim: "Simulator",
        testbed: Testbed,
        n_workers: int | None = None,
        address: str = "tier0",
    ) -> None:
        spec = testbed.platform.bluefield3
        workers = spec.arm_cores if n_workers is None else n_workers
        if workers > spec.arm_cores:
            raise ValueError(f"BlueField-3 has {spec.arm_cores} Arm cores, asked for {workers}")
        self._parse_time = spec.arm_parse_time
        self._memory = (spec.device_memory_rate, spec.device_memory_lanes, "ddr")
        self._port_rate = spec.port_rate
        super().__init__(sim, testbed, workers, address=address)

    def _handle_write(
        self, worker_index: int, qp: QueuePair, message: Message
    ) -> typing.Generator:
        yield self.sim.timeout(self._parse_time)
        # Compression runs ON the Arm core: the worker is busy for the
        # whole block (this is the §3.4 bottleneck).
        yield from self._compress_and_complete(worker_index, qp, message)

    def _compress(self, worker_index: int, payload: Payload) -> typing.Generator:
        rate = self.platform.bluefield3.per_core_compression_rate
        return core_stage(self.device_memory, payload.size / rate, payload, compress_payload)

    def _decompress(self, worker_index: int, payload: Payload) -> typing.Generator:
        # Arm decompression, ~7x faster than compression (§2.2.3).
        rate = self.platform.bluefield3.per_core_compression_rate
        original = payload.original_size or payload.size
        seconds = original / (rate * 7)
        return core_stage(self.device_memory, seconds, payload, decompress_payload)
