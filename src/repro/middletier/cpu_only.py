"""The traditional CPU-based middle tier (Fig. 1a).

Every message crosses PCIe into host DRAM; worker threads parse headers
and run LZ4 on general-purpose cores (2.1 Gb/s per lone thread,
2.7 Gb/s per SMT pair); compressed blocks cross PCIe again on their way
to the replica set. Flexibility is maximal — and so is the pressure on
cores, DRAM, and PCIe, which is exactly what Figs. 7-9 measure.
"""

from __future__ import annotations

import typing

from repro.hostmodel.cpu import CpuComplex
from repro.hostmodel.memory import MemorySubsystem
from repro.middletier.cluster import Testbed
from repro.middletier.stages import HostNicMiddleTier, core_stage
from repro.net.message import Message, Payload, compress_payload, decompress_payload
from repro.net.roce import QueuePair

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Simulator

#: CPU LZ4 decompression runs >7x faster than compression (§2.2.3, [49]).
_DECOMPRESSION_SPEEDUP = 7.0


class CpuOnlyMiddleTier(HostNicMiddleTier):
    """Compression on host cores; the paper's "CPU-only" baseline."""

    design_name = "CPU-only"
    #: control plane runs entirely in host software.
    flexible = True

    def __init__(
        self,
        sim: "Simulator",
        testbed: Testbed,
        n_workers: int,
        address: str = "tier0",
        ddio_enabled: bool = True,
        memory: MemorySubsystem | None = None,
        replica_timeout: float | None = None,
    ) -> None:
        self._ddio_enabled = ddio_enabled
        self._shared_memory = memory
        self.cpu = CpuComplex(testbed.platform.host)
        self.cpu.validate_thread_count(n_workers)
        extra = {} if replica_timeout is None else {"replica_timeout": replica_timeout}
        super().__init__(sim, testbed, n_workers, address=address, **extra)

    def _handle_write(
        self, worker_index: int, qp: QueuePair, message: Message
    ) -> typing.Generator:
        yield self.sim.timeout(self.platform.host.parse_header_time)
        yield from self._compress_and_complete(worker_index, qp, message, host_posts=True)

    def _compress(self, worker_index: int, payload: Payload) -> typing.Generator:
        profile = self.cpu.compression_profile(worker_index, self.n_workers)
        # The DMA ring is long evicted (§3.2): compression streams the
        # payload from DRAM and writes the result back for NIC egress.
        seconds = profile.time_for(payload.size)
        return core_stage(self.memory, seconds, payload, compress_payload)

    def _decompress(self, worker_index: int, payload: Payload) -> typing.Generator:
        profile = self.cpu.compression_profile(worker_index, self.n_workers)
        original = payload.original_size or payload.size
        seconds = original / (profile.rate * _DECOMPRESSION_SPEEDUP)
        return core_stage(self.memory, seconds, payload, decompress_payload)
