"""Differential pin of every tier design's simulated behaviour.

Each design runs one small seeded scenario through its write and read
paths:

- writes with varied compression ratios, some latency-sensitive;
- a read-back of every written block;
- reads that fail over because a replica server has been killed;
- a read of a block that was never written.

Every request's ``(kind, status, repr(latency))`` is hashed together
with the tier's memory, PCIe, engine and fail-over counters and the
kernel's final clock and event count. The expected digests were
recorded on the code before the tier designs shared their datapath
stages, so any refactor of those stages must reproduce them exactly:
the same outputs at the same simulated times, with the same events.

Two variants with a hot-block cache pin the cache-hit frame of the
host-path base class and of SmartDS as well.
"""

from __future__ import annotations

import hashlib
import typing

import pytest

from repro.cache import HotBlockCache
from repro.compression.model import RatioSampler
from repro.core import SmartDsMiddleTier
from repro.core.device import DeviceMemoryAllocator
from repro.middletier import (
    AcceleratorMiddleTier,
    BlueField2MiddleTier,
    CpuOnlyMiddleTier,
    NaiveFpgaMiddleTier,
    Testbed,
)
from repro.middletier.soc_smartnic import BlueField3MiddleTier
from repro.net import NetworkPort, RoceEndpoint
from repro.params import CacheSpec
from repro.sim import Simulator
from repro.units import mib
from repro.workloads import WriteRequestFactory

N_WRITES = 24
#: LBAs read after their first replica's server is killed.
FAILOVER_LBAS = (0, 1, 2, 3)
#: Never written: the read must end ``not_found``.
MISSING_LBA = 1000


class _Client:
    """Closed-loop VM client that keeps every reply's status."""

    def __init__(self, sim: Simulator, tier: typing.Any) -> None:
        self.sim = sim
        network = tier.platform.network
        endpoint = RoceEndpoint(
            sim, NetworkPort(sim, rate=network.port_rate, name="vm.port"), "vm", spec=network
        )
        self.qp = tier.attach_client(endpoint)
        self.records: list[tuple[str, str, str]] = []
        self._waiting: dict[int, typing.Any] = {}
        tier.start()
        sim.process(self._replies(), name="vm.replies", daemon=True)

    def _replies(self) -> typing.Generator:
        while True:
            reply = yield self.qp.recv()
            self._waiting.pop(reply.header["in_reply_to"]).succeed(reply)

    def run(self, messages: list, concurrency: int) -> None:
        shared = iter(messages)
        streams = [self.sim.process(self._stream(shared)) for _ in range(concurrency)]
        self.sim.run(until=self.sim.all_of(streams))

    def _stream(self, messages: typing.Iterator) -> typing.Generator:
        for message in messages:
            event = self.sim.event()
            self._waiting[message.request_id] = event
            start = self.sim.now
            yield self.qp.send(message)
            reply = yield event
            self.records.append(
                (message.kind, reply.header.get("status", "ok"), repr(self.sim.now - start))
            )


def _meter_lines(tier: typing.Any) -> list[str]:
    meters = []
    for attr in ("memory", "device_memory", "fpga_pcie"):
        component = getattr(tier, attr, None)
        if component is not None:
            meters.append(component)
    nic = getattr(tier, "nic", None)
    if nic is not None:
        meters.append(nic.pcie)
    device = getattr(tier, "device", None)
    if device is not None:
        meters += [device.hbm, device.pcie]
    lines = []
    for component in meters:
        for attr in ("read_meter", "write_meter", "h2d_meter", "d2h_meter"):
            meter = getattr(component, attr, None)
            if meter is not None:
                lines.append(
                    f"{meter.name} {meter.total_bytes} {meter.events} "
                    f"{meter.first_event!r} {meter.last_event!r}"
                )
    if device is not None:
        for instance in device.instances:
            engine = instance.engine
            lines.append(
                f"{engine.name} {engine.blocks_processed.value} "
                f"{engine.bytes_in.value} {engine.bytes_out.value}"
            )
    return lines


def _digest(
    make_tier: typing.Callable, cache: str | None = None
) -> tuple[str, list, typing.Any]:
    sim = Simulator()
    testbed = Testbed(sim, n_storage_servers=5)
    tier = make_tier(sim, testbed)
    if cache == "host":
        allocator = DeviceMemoryAllocator(mib(1), sim=sim)
        tier.attach_cache(HotBlockCache(sim, allocator, CacheSpec(enabled=True), name="t.cache"))
    client = _Client(sim, tier)
    factory = WriteRequestFactory(
        testbed.platform,
        ratio_sampler=RatioSampler([1.4, 2.1, 3.3, 1.8], seed=3),
        latency_sensitive_fraction=0.25,
        seed=5,
    )
    client.run([factory.make() for _ in range(N_WRITES)], concurrency=4)
    client.run([factory.make_read(lba) for lba in range(N_WRITES)], concurrency=4)
    if cache is not None:
        # Second pass: the blocks the first pass admitted are now hits.
        client.run([factory.make_read(lba) for lba in range(N_WRITES)], concurrency=4)
    testbed.server(tier._block_locations[(0, 0)][0]).fail()
    if cache is not None:
        # Drop the fail-over blocks from the cache so their reads go to storage.
        for lba in FAILOVER_LBAS:
            tier.cache.invalidate((0, lba))
    client.run([factory.make_read(lba) for lba in FAILOVER_LBAS], concurrency=2)
    client.run([factory.make_read(MISSING_LBA)], concurrency=1)
    sim.run()
    lines = [" ".join(record) for record in client.records]
    lines += _meter_lines(tier)
    lines.append(
        f"failovers {tier.failovers.value} {tier.read_failovers.value} "
        f"{tier.reads_unavailable.value} completed {tier.requests_completed.value}"
    )
    lines.append(f"clock {sim.now!r} steps {sim.steps}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest(), client.records, tier


_DESIGNS: dict[str, tuple[typing.Callable, str | None]] = {
    "CPU-only": (lambda sim, tb: CpuOnlyMiddleTier(sim, tb, n_workers=4), None),
    "Acc": (lambda sim, tb: AcceleratorMiddleTier(sim, tb, n_workers=4), None),
    "Acc w/o DDIO": (
        lambda sim, tb: AcceleratorMiddleTier(sim, tb, n_workers=4, ddio_enabled=False),
        None,
    ),
    "BF2": (lambda sim, tb: BlueField2MiddleTier(sim, tb, n_workers=4), None),
    "FPGA-only": (lambda sim, tb: NaiveFpgaMiddleTier(sim, tb, n_workers=2), None),
    "BF3": (lambda sim, tb: BlueField3MiddleTier(sim, tb), None),
    "SmartDS-1": (lambda sim, tb: SmartDsMiddleTier(sim, tb, n_ports=1), None),
    "CPU-only+cache": (lambda sim, tb: CpuOnlyMiddleTier(sim, tb, n_workers=4), "host"),
    "SmartDS-1+cache": (
        lambda sim, tb: SmartDsMiddleTier(
            sim, tb, n_ports=1, cache_spec=CacheSpec(enabled=True)
        ),
        "device",
    ),
}

EXPECTED = {
    "CPU-only": "62d2f33a1d0883edc9d29db0e3d0627a87c06d7dbca9ee576a0029786b8b3bd1",
    "Acc": "2b1b59b4e0764f3d97886252eedcc66d3bc727b5274cde9dfac534b666aaccbd",
    "Acc w/o DDIO": "aa31eef794cc46391aa80599a3667ed6421fa9d4ec913067ea66903ab93381f7",
    "BF2": "6883b5b0ec0742fcbdcf47aa78ab9f427576196036c8ae12473d1099dfb13603",
    "FPGA-only": "c0260b83f6de4cfcf1f1e3d3bc1019739b1b5b00e3281933f65ee662b42b2d5f",
    "BF3": "733198c60eeb2088f5b7bf996cada4ae0de53e1822e7e4d38e252e2bc07720e9",
    "SmartDS-1": "59d52e58591e5936a5ce2bb856e5c21434ef5a2dc8ba43fedf2fc7ad4d8a98ee",
    "CPU-only+cache": "f13ee3f885d6594999f8d8b5accd967dc20fa074c5e1b86b6ef0407ae90d31d7",
    "SmartDS-1+cache": "10163e2b4415aa56d46dbc805ad6795ed48c33c10a00611b03a4f078754e6e46",
}


@pytest.mark.parametrize("design", list(_DESIGNS))
def test_design_matches_recorded_digest(design):
    make_tier, cache = _DESIGNS[design]
    digest, records, tier = _digest(make_tier, cache)
    statuses = [status for _kind, status, _latency in records]
    # The scenario must exercise what it claims to pin.
    assert statuses[-1] == "not_found"
    assert statuses.count("ok") == len(statuses) - 1
    assert tier.read_failovers.value >= 1
    if cache is not None:
        assert tier.cache.hits.value > 0
    assert digest == EXPECTED[design]


def test_digest_is_repeatable_in_one_process():
    make_tier, cache = _DESIGNS["SmartDS-1"]
    assert _digest(make_tier, cache)[0] == _digest(make_tier, cache)[0]
