"""The benchmark's three closed-loop workloads.

Every workload drives a middle tier from the benchmark's own client: a
fixed number of outstanding requests per client, each stream sending
its next request only after the previous reply (the paper's §5.1
methodology). A run has two phases:

- **set-up**: testbed build, input generation, preload, cache warm-up
  and the warm-up requests whose results are discarded. It ends at the
  *mark*, the moment the warm-up count of replies is in;
- **measured**: the rest of the closed loop, plus, on the write
  workloads, a closed-loop read-back of written LBAs that is both the
  correctness check and the source of the read metrics.

Work sizes are fixed functions of the workload and the run length, so
one seed always simulates the same requests; only host time varies.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import random
import struct
import typing

from repro.compression.corpus import SilesiaLikeCorpus
from repro.compression.model import RatioSampler
from repro.core import SmartDsMiddleTier
from repro.middletier import CpuOnlyMiddleTier, Testbed
from repro.net.link import NetworkPort
from repro.net.roce import RoceEndpoint
from repro.params import CacheSpec, PlatformSpec
from repro.sim import Simulator
from repro.telemetry.metrics import LatencyRecorder
from repro.units import to_gbps, to_usec
from repro.workloads import SkewedReadFactory, WriteRequestFactory

#: Synthetic per-block LZ4 ratios: mean 2.1 (the corpus calibration),
#: drawn per block from the seed so each seed is a different input.
SYNTHETIC_RATIOS = (1.8, 1.95, 2.1, 2.25, 2.4)

#: Share of CPU-only writes flagged latency-sensitive, which skip
#: compression (the paper's Listing 1). The CPU-bound pipeline otherwise
#: gives every seed bit-identical write latencies; the seeded flags make
#: the seed reach it.
LATENCY_SENSITIVE_FRACTION = 0.05

#: LBAs read back after a write workload (p99 needs >= 1000 samples).
READBACK_LBAS = 1024
READBACK_CONCURRENCY = 64


@dataclasses.dataclass(frozen=True)
class Record:
    """One completed request as the client saw it (simulated seconds)."""

    op: str  # "w" or "r"
    lba: int
    start: float
    end: float
    status: str
    nbytes: int  # payload sent (writes) or returned (reads)

    def pack(self) -> bytes:
        """Exact binary form for the determinism digest."""
        return struct.pack("<cqdd", self.op.encode(), self.lba, self.start, self.end) + (
            self.status.encode() + b"\0"
        )


class Client:
    """One VM-side queue pair driving closed-loop request streams.

    It plays :class:`repro.workloads.ClientDriver`'s part, but keeps
    what the output checks need and the driver drops: every reply's
    status (writes included), and the bytes a read returns.
    """

    def __init__(self, sim: Simulator, tier: typing.Any, name: str) -> None:
        self.sim = sim
        network = tier.platform.network
        port = NetworkPort(sim, rate=network.port_rate, name=f"{name}.port")
        endpoint = RoceEndpoint(sim, port, name, spec=network)
        self.qp = tier.attach_client(endpoint)
        self.records: list[Record] = []
        #: Optional ``check(lba, reply)`` run on every read reply; returns
        #: False when the returned block is wrong.
        self.check_read: typing.Callable[[int, typing.Any], bool] | None = None
        self.bad_reads: list[int] = []
        self._waiting: dict[int, typing.Any] = {}
        tier.start()
        sim.process(self._replies(), name=f"{name}.replies", daemon=True)

    def _replies(self) -> typing.Generator:
        while True:
            reply = yield self.qp.recv()
            self._waiting.pop(reply.header["in_reply_to"]).succeed(reply)

    def run(
        self,
        requests: typing.Iterable[typing.Any],
        concurrency: int,
        mark_after: int | None = None,
    ) -> tuple[typing.Any, typing.Any]:
        """Send every message `requests` yields, `concurrency` at a time.

        Returns ``(done, mark)``: `done` fires when the streams finish;
        `mark` (or None) fires once this client holds `mark_after`
        records.
        """
        shared = iter(requests)
        mark = self.sim.event(name="mark") if mark_after is not None else None
        streams = [
            self.sim.process(self._stream(shared, mark, mark_after))
            for _ in range(concurrency)
        ]
        return self.sim.all_of(streams), mark

    def _stream(
        self, requests: typing.Iterator[typing.Any], mark: typing.Any, mark_after: int | None
    ) -> typing.Generator:
        sim = self.sim
        for message in requests:
            reply_event = sim.event()
            self._waiting[message.request_id] = reply_event
            start = sim.now
            yield self.qp.send(message)
            reply = yield reply_event
            lba = message.header["block_id"]
            status = reply.header.get("status", "ok")
            if message.kind == "write_request":
                op, nbytes = "w", message.payload_size
            else:
                op, nbytes = "r", reply.payload_size
                if status == "ok" and self.check_read is not None and not self.check_read(
                    lba, reply
                ):
                    self.bad_reads.append(lba)
            self.records.append(Record(op, lba, start, sim.now, status, nbytes))
            if mark is not None and len(self.records) == mark_after:
                mark.succeed()


def _snapshot(tier: typing.Any, testbed: Testbed, sim: Simulator) -> dict[str, float]:
    """Cumulative simulated counters the per-layer metrics difference."""
    pcie = [
        link
        for link in (
            getattr(getattr(tier, "nic", None), "pcie", None),
            getattr(getattr(tier, "device", None), "pcie", None),
        )
        if link is not None
    ]
    device = getattr(tier, "device", None)
    engines = [instance.engine for instance in device.instances] if device else []
    cache = tier.cache
    servers = testbed.storage_servers
    return {
        "now": sim.now,
        "steps": sim.steps,
        "mem_read": tier.memory.read_meter.total_bytes,
        "mem_write": tier.memory.write_meter.total_bytes,
        "pcie": sum(l.h2d_meter.total_bytes + l.d2h_meter.total_bytes for l in pcie),
        "engine_in": sum(engine.bytes_in.value for engine in engines),
        "stored": sum(server.device.write_meter.total_bytes for server in servers),
        "backend_reads": sum(server.reads_served.value for server in servers),
        "hits": cache.hits.value if cache else 0,
        "misses": cache.misses.value if cache else 0,
        "invalidations": cache.invalidations.value if cache else 0,
    }


class Workload:
    """A built testbed positioned at the mark, ready to be measured."""

    #: Measured requests per second of run length, sized so a run on a
    #: 2-core x86 host measures about `seconds` of CPU time.
    requests_per_second = 0
    #: Floor on measured requests, so a p99 has at least 1000 samples.
    min_measured = 0

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        self.n_measured = max(int(self.requests_per_second * seconds), self.min_measured)
        self.platform = PlatformSpec()
        self.sim = Simulator()
        self.testbed = Testbed(self.sim, self.platform, n_storage_servers=3)
        self.clients: list[Client] = []
        self.tier: typing.Any = None
        self._marks: list[int] = []
        self._phases: dict[str, dict[str, float]] = {}

    # -- subclass surface -------------------------------------------------

    def set_up(self) -> None:
        """Build, preload and warm up; leave the sim at the mark."""
        raise NotImplementedError

    def measure(self) -> None:
        """Run the measured phase to completion."""
        raise NotImplementedError

    # -- shared machinery --------------------------------------------------

    def client(self, name: str) -> Client:
        """A new client on the tier, whose records the results include."""
        client = Client(self.sim, self.tier, name)
        self.clients.append(client)
        return client

    def at_mark(self) -> None:
        """Record where the measured phase starts."""
        self._marks = [len(client.records) for client in self.clients]
        self.phase("mark")

    def phase(self, name: str) -> None:
        """Snapshot the simulated counters at a phase boundary."""
        self._phases[name] = _snapshot(self.tier, self.testbed, self.sim)

    def measured_records(self) -> list[Record]:
        return [r for c, m in zip(self.clients, self._marks) for r in c.records[m:]]

    def bad_reads(self) -> list[int]:
        return [lba for client in self.clients for lba in client.bad_reads]

    def digest(self) -> str:
        """SHA-256 over every request's simulated timing and status."""
        h = hashlib.sha256()
        for client in self.clients:
            for record in client.records:
                h.update(record.pack())
        return h.hexdigest()[:16]

    def results(self) -> dict[str, typing.Any]:
        """Simulated end-to-end and per-layer figures of the measured phase."""
        mark, end = self._phases["mark"], self._phases["end"]
        writes_end = self._phases.get("writes_end", end)
        window = end["now"] - mark["now"]
        records = self.measured_records()
        ok = [r for r in records if r.status == "ok"]
        latency = {"w": LatencyRecorder("write"), "r": LatencyRecorder("read")}
        for record in ok:
            latency[record.op].record(record.end - record.start)
        # Raw bytes of the measured writes over the bytes they stored per
        # replica: the engine's ratio on SmartDS, the CPU codec's otherwise.
        written = sum(r.nbytes for r in ok if r.op == "w" and r.end <= writes_end["now"])
        stored = writes_end["stored"] - mark["stored"]
        replication = self.platform.storage.replication
        lookups = (end["hits"] - mark["hits"]) + (end["misses"] - mark["misses"])

        def rate(key: str) -> float:
            return to_gbps((end[key] - mark[key]) / window)

        sim = {
            "requests": len(records),
            "not_ok": len(records) - len(ok),
            "ok_frac": len(ok) / len(records),
            "sim_goodput_gbps": to_gbps(sum(r.nbytes for r in ok) / window),
            "events": end["steps"] - mark["steps"],
            "hostmodel.mem_read_gbps": rate("mem_read"),
            "hostmodel.mem_write_gbps": rate("mem_write"),
            "hostmodel.pcie_gbps": rate("pcie"),
            "core.engine_in_gbps": rate("engine_in"),
            "core.compression_ratio": written / (stored / replication) if stored else 0.0,
            "cache.hit_ratio": (end["hits"] - mark["hits"]) / lookups if lookups else 0.0,
            "cache.invalidations": end["invalidations"] - mark["invalidations"],
            "storage.backend_reads": end["backend_reads"] - mark["backend_reads"],
            "digest": self.digest(),
        }
        for op, name in (("w", "write"), ("r", "read")):
            recorder = latency[op]
            sim[f"{name}_samples"] = recorder.count
            if recorder.count:
                sim[f"sim_{name}_p50_us"] = to_usec(recorder.percentile(0.50))
                sim[f"sim_{name}_p99_us"] = to_usec(recorder.percentile(0.99))
        return sim


class _WriteWorkload(Workload):
    """Closed-loop writes, then a closed-loop read-back of written LBAs."""

    concurrency = 0
    warmup_requests = 0
    min_measured = 1024

    def build_tier(self) -> typing.Any:
        raise NotImplementedError

    def factory(self) -> WriteRequestFactory:
        raise NotImplementedError

    def set_up(self) -> None:
        self.tier = self.build_tier()
        self.writer = self.client("vm0")
        self.n_writes = self.warmup_requests + self.n_measured
        self._factory = self.factory()
        requests = (self._factory.make() for _ in range(self.n_writes))
        self._writes_done, mark = self.writer.run(
            requests, self.concurrency, mark_after=self.warmup_requests
        )
        self.sim.run(until=mark)
        self.at_mark()

    def measure(self) -> None:
        self.sim.run(until=self._writes_done)
        self.phase("writes_end")
        rng = random.Random(self.seed)
        lbas = rng.sample(range(self.n_writes), READBACK_LBAS)
        reads = (self._factory.make_read(lba) for lba in lbas)
        done, _ = self.writer.run(reads, READBACK_CONCURRENCY)
        self.sim.run(until=done)
        self.phase("end")


class SmartDsCorpusWrite(_WriteWorkload):
    """SmartDS-1, 2 workers, 256 outstanding writes of real corpus blocks."""

    requests_per_second = 400
    concurrency = 256
    warmup_requests = 512

    def build_tier(self) -> typing.Any:
        return SmartDsMiddleTier(
            self.sim,
            self.testbed,
            n_ports=1,
            n_workers=2,
            cache_spec=CacheSpec(enabled=False),
        )

    def factory(self) -> WriteRequestFactory:
        blocks = SilesiaLikeCorpus().blocks(self.platform.workload.block_size)
        random.Random(self.seed).shuffle(blocks)
        self.blocks = blocks
        self.writer.check_read = self._matches_source
        return WriteRequestFactory(self.platform, blocks=blocks, seed=self.seed)

    def _matches_source(self, lba: int, reply: typing.Any) -> bool:
        return reply.payload.data == self.blocks[lba % len(self.blocks)]


def _full_block(platform: PlatformSpec) -> typing.Callable[[int, typing.Any], bool]:
    block_size = platform.workload.block_size
    return lambda _lba, reply: reply.payload_size == block_size


class CpuOnlyWrite(_WriteWorkload):
    """CPU-only, 48 workers, 288 outstanding synthetic writes (Fig. 7 peak)."""

    requests_per_second = 650
    concurrency = 288
    warmup_requests = 576

    def build_tier(self) -> typing.Any:
        return CpuOnlyMiddleTier(self.sim, self.testbed, n_workers=48)

    def factory(self) -> WriteRequestFactory:
        self.writer.check_read = _full_block(self.platform)
        return WriteRequestFactory(
            self.platform,
            ratio_sampler=RatioSampler(SYNTHETIC_RATIOS, seed=self.seed),
            latency_sensitive_fraction=LATENCY_SENSITIVE_FRACTION,
            seed=self.seed,
        )


class SmartDsCachedMix(Workload):
    """Warm-cache Zipf(0.99) reads beside a client overwriting the range."""

    requests_per_second = 2400
    min_measured = 4500  # reads; about a quarter as many writes
    n_blocks = 1024
    reader_concurrency = 32
    writer_concurrency = 10
    skew = 0.99
    cache_warmup_reads = 2048
    warmup_requests = 1024

    def set_up(self) -> None:
        self.tier = SmartDsMiddleTier(
            self.sim,
            self.testbed,
            n_ports=1,
            n_workers=2,
            cache_spec=CacheSpec(enabled=True),
        )
        self.writer = self.client("vm-writer")
        self.reader = self.client("vm-reader")
        self.reader.check_read = _full_block(self.platform)
        sampler = RatioSampler(SYNTHETIC_RATIOS, seed=self.seed)

        def range_writes(passes: int | None) -> typing.Iterator[typing.Any]:
            for _ in range(passes) if passes is not None else itertools.count():
                factory = WriteRequestFactory(
                    self.platform, ratio_sampler=sampler, vm_id="vm0", seed=self.seed
                )
                for _ in range(self.n_blocks):
                    if self._stop:
                        return
                    yield factory.make()

        self._stop = False
        done, _ = self.writer.run(range_writes(1), 64)
        self.sim.run(until=done)
        skewed = SkewedReadFactory(
            WriteRequestFactory(self.platform, vm_id="vm0"),
            self.n_blocks,
            skew=self.skew,
            seed=self.seed,
        )
        warm = (skewed.make() for _ in range(self.cache_warmup_reads))
        done, _ = self.reader.run(warm, self.reader_concurrency)
        self.sim.run(until=done)

        n_reads = self.warmup_requests + self.n_measured
        reads = (skewed.make() for _ in range(n_reads))
        reads_done, mark = self.reader.run(
            reads,
            self.reader_concurrency,
            mark_after=len(self.reader.records) + self.warmup_requests,
        )
        writes_done, _ = self.writer.run(range_writes(None), self.writer_concurrency)
        self._done = self.sim.all_of([reads_done, writes_done])
        self.sim.process(self._stop_writer(reads_done), name="stop-writer")
        self.sim.run(until=mark)
        self.at_mark()

    def _stop_writer(self, reads_done: typing.Any) -> typing.Generator:
        yield reads_done
        self._stop = True

    def measure(self) -> None:
        self.sim.run(until=self._done)
        self.phase("end")


WORKLOADS: dict[str, type[Workload]] = {
    "smartds_corpus_write": SmartDsCorpusWrite,
    "cpu_only_write": CpuOnlyWrite,
    "smartds_cached_mix": SmartDsCachedMix,
}
