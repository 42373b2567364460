"""The accelerator-enhanced middle tier (Fig. 1b).

The host CPU still sees every message, but compression is offloaded to
a PCIe FPGA (Alveo U280-like) whose engine consumes ~100 Gb/s. The
payload therefore crosses PCIe *twice more* than in the CPU-only design
(host->FPGA and FPGA->host), which is the design's Achilles heel
(§3.2): computation pressure is gone, interconnect pressure doubles,
and memory pressure stays.

With DDIO enabled (the paper's "Acc w/ DDIO"), the FPGA reads payloads
that are still resident in the DDIO LLC ways and the NIC reads the
results the same way, so DRAM sees almost no read traffic — but the
write-allocations still spill, so write bandwidth keeps growing with
load (Fig. 8a).
"""

from __future__ import annotations

import typing

from repro.compression.model import FPGA_ENGINE, CompressorProfile
from repro.hostmodel.memory import MemorySubsystem
from repro.hostmodel.pcie import PcieLink
from repro.middletier.cluster import Testbed
from repro.middletier.stages import HostNicMiddleTier, engine_stage
from repro.net.message import Message, Payload, compress_payload, decompress_payload
from repro.net.roce import QueuePair
from repro.sim.resources import Resource
from repro.units import mib

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Simulator

#: In-flight window between NIC write and FPGA read: small enough to sit
#: in the DDIO ways when the pipeline keeps up.
_PIPELINE_WINDOW = mib(1)


class AcceleratorMiddleTier(HostNicMiddleTier):
    """Host control plane + PCIe FPGA compression; the paper's "Acc"."""

    design_name = "Acc"
    flexible = True

    def __init__(
        self,
        sim: "Simulator",
        testbed: Testbed,
        n_workers: int,
        address: str = "tier0",
        ddio_enabled: bool = True,
        engine_profile: CompressorProfile = FPGA_ENGINE,
        memory: MemorySubsystem | None = None,
    ) -> None:
        self._ddio_enabled = ddio_enabled
        self._engine_profile = engine_profile
        self._shared_memory = memory
        # With DDIO the egress NIC reads results the FPGA just wrote (hit);
        # without it every device read goes to DRAM. The FPGA's own reads
        # see the same working set.
        self._read_working_set = _PIPELINE_WINDOW if ddio_enabled else (
            testbed.platform.workload.intermediate_buffer_bytes
        )
        super().__init__(sim, testbed, n_workers, address=address)

    def _build(self) -> None:
        super()._build()
        # The accelerator is a second PCIe device with its own x16 link.
        self.fpga_pcie = PcieLink(self.sim, self.platform.host, name=f"{self.address}.fpga-pcie")
        self.engine = Resource(self.sim, capacity=1, name=f"{self.address}.engine")

    def _handle_write(
        self, worker_index: int, qp: QueuePair, message: Message
    ) -> typing.Generator:
        host = self.platform.host
        yield self.sim.timeout(host.parse_header_time)
        # Post the engine descriptor and move on; a completion context
        # finishes the request so the worker never blocks on the FPGA.
        # The CPU then polls the completion and posts the storage sends.
        yield self.sim.timeout(host.post_descriptor_time)
        self.sim.process(self._compress_and_complete(worker_index, qp, message, host_posts=True))

    def _fpga_round_trip(
        self, payload: Payload, operation: typing.Callable[[Payload], Payload]
    ) -> typing.Generator:
        """Host-memory read pass (LLC hit or DRAM), then the engine stage
        over the FPGA's own PCIe link."""
        traffic = self.llc.dma_read(payload.size, self._read_working_set)
        if traffic.dram_read:
            yield self.memory.read(traffic.dram_read)
        return (
            yield from engine_stage(
                self.engine,
                self._engine_profile,
                payload,
                operation,
                self.fpga_pcie.dma_read,
                self.fpga_pcie.dma_write,
            )
        )

    def _engine_compress(self, payload: Payload) -> typing.Generator:
        outgoing = yield from self._fpga_round_trip(payload, compress_payload)
        traffic = self.llc.dma_write(
            outgoing.size, self.platform.workload.intermediate_buffer_bytes
        )
        if traffic.dram_write:
            yield self.memory.write(traffic.dram_write)
        return outgoing

    def _compress(self, worker_index: int, payload: Payload) -> typing.Generator:
        return (yield self.sim.process(self._engine_compress(payload)))

    def _decompress(self, worker_index: int, payload: Payload) -> typing.Generator:
        """Reads decompress on the engine too (same PCIe round trip)."""
        return self._fpga_round_trip(payload, decompress_payload)
