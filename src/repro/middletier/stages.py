"""The datapath stages the middle-tier designs are built from.

The paper's Fig. 1 designs differ only in where a payload lives and
which hardware pays for parsing, compression and copies, so each design
composes the same few stages (``docs/architecture.md`` maps every
design onto them):

- :func:`engine_pass` -- one block through a pipelined hardware engine;
- :func:`engine_stage` -- read a block in over a memory or PCIe pass,
  run the codec on an engine, write the result back; :func:`core_stage`
  is the same stage with general-purpose cores running the codec;
- :class:`HostNicMiddleTier` -- the designs whose payloads land in host
  DRAM through a plain NIC (CPU-only, Acc);
- :class:`DeviceMemoryDatapath` -- RoCE ingress and egress straight
  into the SmartNIC's own memory;
- :class:`DeviceMemoryMiddleTier` -- the designs whose payloads never
  leave that memory (FPGA-only, BF2, BF3).

The request-level steps every design shares (compress-or-forward, the
read fail-over loop, the reply helpers) live on
:class:`~repro.middletier.base.MiddleTierServer`.
"""

from __future__ import annotations

import typing

from repro.compression.model import CompressorProfile
from repro.hostmodel.cache import DdioLlc
from repro.hostmodel.memory import MemorySubsystem
from repro.middletier.base import MiddleTierServer
from repro.net.link import NetworkPort
from repro.net.message import Message, Payload, compress_payload, decompress_payload
from repro.net.nic import HostNic
from repro.net.roce import Datapath, QueuePair, RoceEndpoint
from repro.sim.resources import Resource
from repro.units import kib

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.debug import FaultPlan


def engine_pass(
    engine: Resource,
    profile: CompressorProfile,
    nbytes: int,
    fault_plan: "FaultPlan | None" = None,
) -> typing.Generator:
    """Stream `nbytes` through one unit of `engine`.

    The block holds a unit for its occupancy time (stretched by the
    fault plan's slowdown window, if any), then pays the per-block setup
    latency after releasing it: setup delays this block without
    stalling the next one.
    """
    slot = engine.request()
    yield slot
    try:
        occupancy = profile.occupancy_time(nbytes)
        if fault_plan is not None:
            occupancy *= fault_plan.slowdown(engine.sim.now)
        yield engine.sim.timeout(occupancy)
    finally:
        engine.release(slot)
    if profile.setup_time:
        yield engine.sim.timeout(profile.setup_time)


def engine_stage(
    engine: Resource,
    profile: CompressorProfile,
    payload: Payload,
    operation: typing.Callable[[Payload], Payload],
    fetch: typing.Callable[[int], typing.Any],
    store: typing.Callable[[int], typing.Any],
) -> typing.Generator:
    """Read `payload` in with `fetch`, stream it through `engine`, write
    the result out with `store`; returns ``operation(payload)``.

    `fetch` and `store` take a byte count and return the event of a
    memory or PCIe pass.
    """
    yield fetch(payload.size)
    yield from engine_pass(engine, profile, payload.size)
    result = operation(payload)
    yield store(result.size)
    return result


def core_stage(
    memory: MemorySubsystem,
    seconds: float,
    payload: Payload,
    operation: typing.Callable[[Payload], Payload],
) -> typing.Generator:
    """General-purpose cores run the codec for `seconds`, streaming the
    block from `memory` and writing the result back to it."""
    yield memory.read(payload.size)
    yield memory.sim.timeout(seconds)
    result = operation(payload)
    yield memory.write(result.size)
    return result


class HostNicMiddleTier(MiddleTierServer):
    """A design whose payloads land in host DRAM through a plain NIC.

    Every message crosses the NIC's PCIe link into host memory (through
    the DDIO LLC ways when enabled) and back out. Subclasses set, before
    calling ``super().__init__``, ``_ddio_enabled``, ``_shared_memory``
    (a DRAM shared with co-located tiers, or ``None``) and optionally
    ``_read_working_set`` (the egress DMA's working set).
    """

    _ddio_enabled: bool
    _shared_memory: MemorySubsystem | None
    _read_working_set: int | None = None

    def _build(self) -> None:
        host = self.platform.host
        self.memory = self._shared_memory or MemorySubsystem.for_host(
            self.sim, host, name=f"{self.address}.dram"
        )
        self.llc = DdioLlc(host, enabled=self._ddio_enabled)
        self.nic = HostNic(
            self.sim,
            self.address,
            self.memory,
            self.llc,
            host_spec=host,
            network_spec=self.platform.network,
            workload_spec=self.platform.workload,
            read_working_set=self._read_working_set,
        )
        self.client_endpoint = self.nic.endpoint
        self.storage_endpoint = self.nic.endpoint


class DeviceMemoryDatapath(Datapath):
    """Every message lands in / departs from the SmartNIC's own DRAM."""

    def __init__(self, device_memory: MemorySubsystem) -> None:
        self.device_memory = device_memory

    def ingress(self, message: Message, qp: QueuePair) -> typing.Generator:
        yield self.device_memory.write(message.size)
        return False

    def egress(self, message: Message, qp: QueuePair) -> typing.Generator:
        yield self.device_memory.read(message.size)
        return None


class DeviceMemoryMiddleTier(MiddleTierServer):
    """A design whose payloads live in the SmartNIC's own memory.

    The host takes no part: the card parses headers, its engine (or its
    Arm cores) runs the codec, and every payload crosses device memory
    on the way in, through the codec and on the way out. Subclasses
    differ only in data, set before calling ``super().__init__``:

    - ``_parse_time``: seconds to parse one header (gateware or an Arm
      core);
    - ``_memory``: device memory as ``(rate, lanes, name suffix)``;
    - ``_port_rate``: the networking port's line rate;
    - ``_engine_profile`` and ``_engine_capacity``: the compression
      engine and its parallel units. A design without an engine
      (``None``) overrides the write path and the codec stages.
    """

    _parse_time: float
    _memory: tuple[float, int, str]
    _port_rate: float
    _engine_profile: CompressorProfile | None = None
    _engine_capacity = 1

    def _build(self) -> None:
        rate, lanes, suffix = self._memory
        self.device_memory = MemorySubsystem(
            self.sim, rate=rate, lanes=lanes, chunk=kib(64), name=f"{self.address}.{suffix}"
        )
        self.port = NetworkPort(self.sim, rate=self._port_rate, name=f"{self.address}.port")
        endpoint = RoceEndpoint(
            self.sim,
            self.port,
            self.address,
            datapath=DeviceMemoryDatapath(self.device_memory),
            spec=self.platform.network,
        )
        self.engine: Resource | None = None
        if self._engine_profile is not None:
            self.engine = Resource(
                self.sim, capacity=self._engine_capacity, name=f"{self.address}.engine"
            )
        self.client_endpoint = endpoint
        self.storage_endpoint = endpoint

    def _handle_write(
        self, worker_index: int, qp: QueuePair, message: Message
    ) -> typing.Generator:
        yield self.sim.timeout(self._parse_time)
        # Hand the block to an engine; the parser moves straight on to
        # the next message.
        self.sim.process(self._compress_and_complete(worker_index, qp, message))

    def _engine_stage(
        self, payload: Payload, operation: typing.Callable[[Payload], Payload]
    ) -> typing.Generator:
        """Device-memory read, engine pass, device-memory write (§3.4's passes)."""
        return engine_stage(
            self.engine,
            self._engine_profile,
            payload,
            operation,
            self.device_memory.read,
            self.device_memory.write,
        )

    def _compress(self, worker_index: int, payload: Payload) -> typing.Generator:
        return (yield self.sim.process(self._engine_stage(payload, compress_payload)))

    def _decompress(self, worker_index: int, payload: Payload) -> typing.Generator:
        return self._engine_stage(payload, decompress_payload)
