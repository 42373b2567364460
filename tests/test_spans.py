"""Request-scoped causal tracing: span units, end-to-end datapath
traces, the failover/degradation reports, and the zero-cost discipline.

The end-to-end tests run real workloads through the middle tier and
assert on the span trees the datapath emits — including the satellite
guarantees: a failed-over read records one ``read.attempt`` span per
attempt with exactly one ``ok``, and an unavailable read's critical
path names the give-up stage.
"""

import json
import time

import pytest

from repro.core import SmartDsMiddleTier
from repro.middletier import CpuOnlyMiddleTier, Testbed
from repro.net.message import Message
from repro.sim import Simulator
from repro.telemetry.profiler import COMPONENTS, component_of
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.spans import OUTCOMES, SpanCollector, TraceSession
from repro.units import usec
from repro.workloads import ClientDriver, WriteRequestFactory

TIER_FACTORIES = [
    lambda sim, testbed: CpuOnlyMiddleTier(sim, testbed, n_workers=2),
    lambda sim, testbed: SmartDsMiddleTier(sim, testbed, n_ports=1),
]
TIER_IDS = ["cpu-only", "smartds"]


def _write_then_locate(sim, tier, testbed, n_writes=8, concurrency=4, seed=1):
    """Run a short write phase; return (driver, replica addresses of LBA 0)."""
    driver = ClientDriver(
        sim,
        tier,
        WriteRequestFactory(testbed.platform, seed=seed),
        concurrency=concurrency,
        warmup_fraction=0.0,
    )
    sim.run(until=driver.run(n_writes))
    return driver, tier._block_locations[(0, 0)]


class TestSpan:
    def test_child_and_finish(self):
        sim = Simulator()
        collector = SpanCollector(sim)
        root = collector.request("write_request", 1, vm="vm0")
        child = root.child("client.tx", port=0)
        sim._now = 2.5  # advance time directly; no processes needed
        child.finish("ok", nbytes=4096)
        assert child.parent_id == root.span_id
        assert child.trace_id == 1
        assert child.duration == pytest.approx(2.5)
        assert child.outcome == "ok"
        assert child.nbytes == 4096
        assert child.attrs == {"port": 0}

    def test_first_finish_wins(self):
        sim = Simulator()
        collector = SpanCollector(sim)
        span = collector.request("r", 1)
        span.finish("degraded", nbytes=7)
        span.finish("ok", nbytes=9)  # ignored, never raises
        assert span.outcome == "degraded"
        assert span.nbytes == 7

    def test_event_is_zero_duration(self):
        sim = Simulator()
        collector = SpanCollector(sim)
        root = collector.request("r", 1)
        marker = root.event("cache.miss")
        assert marker.duration == 0.0
        assert marker.outcome == "ok"
        assert marker.parent_id == root.span_id

    def test_child_of_finished_parent_allowed(self):
        # Reply-path stages hang off parents that already closed.
        sim = Simulator()
        collector = SpanCollector(sim)
        root = collector.request("r", 1)
        root.finish("ok")
        late = root.child("net.reply")
        assert late.parent_id == root.span_id

    def test_outcome_vocabulary(self):
        assert OUTCOMES == ("ok", "degraded", "retried", "failed", "shed")


class TestSpanCollector:
    def test_trace_tree_queries(self):
        sim = Simulator()
        collector = SpanCollector(sim)
        root = collector.request("r", 42)
        a = root.child("a")
        b = root.child("b")
        grandchild = a.child("a.a")
        assert collector.trace_ids == (42,)
        assert collector.root(42) is root
        assert collector.children(root) == (a, b)
        assert collector.children(a) == (grandchild,)
        assert len(collector.trace(42)) == 4

    def test_limit_drops_beyond_cap(self):
        sim = Simulator()
        collector = SpanCollector(sim, limit=2)
        root = collector.request("r", 1)
        root.child("kept")
        root.child("dropped")
        assert len(collector.spans) == 2
        assert collector.spans_dropped == 1

    def test_cap_evicts_oldest_root_first(self):
        # Ring semantics: at the cap, the *oldest trace* is evicted
        # whole, so the buffer always holds the newest complete trees.
        sim = Simulator()
        collector = SpanCollector(sim, limit=4)
        for trace_id in (1, 2):
            root = collector.request("r", trace_id)
            root.child("stage").finish()
        assert collector.trace_ids == (1, 2)
        # Trace 3's root is the 5th span: trace 1 (2 spans) must go.
        collector.request("r", 3)
        assert collector.trace_ids == (2, 3)
        assert collector.trace(1) == ()
        assert collector.spans_dropped == 2
        assert collector.traces_evicted == 1
        # The evicted trace's trees are gone but the newer ones intact.
        assert [span.trace_id for span in collector.spans] == [2, 2, 3]

    def test_cap_honored_under_concurrent_roots(self):
        sim = Simulator()
        limit = 6
        collector = SpanCollector(sim, limit=limit)
        created = 0
        roots = [collector.request("r", trace_id) for trace_id in range(4)]
        created += len(roots)
        for name in ("a", "b"):  # interleave children across open traces
            for root in roots:
                root.child(name)
                created += 1
                assert len(collector.spans) <= limit
        # Conservation: every span created was either kept or counted.
        assert collector.spans_dropped == created - len(collector.spans)
        assert collector.traces_evicted > 0

    def test_one_giant_trace_drops_new_spans_not_old(self):
        sim = Simulator()
        collector = SpanCollector(sim, limit=3)
        root = collector.request("r", 1)
        root.child("kept")
        root.child("kept2")
        root.child("dropped")  # the trace *is* the oldest: drop the new span
        assert collector.trace_ids == (1,)
        assert len(collector.spans) == 3
        assert collector.spans_dropped == 1
        assert collector.traces_evicted == 0

    def test_dropped_span_counter_exposed_in_registry(self):
        sim = Simulator()
        registry = MetricsRegistry().attach(sim)
        collector = SpanCollector(sim, limit=1)
        root = collector.request("r", 1)
        root.child("dropped")
        series = registry.get("trace.spans_dropped", component="telemetry")
        assert series is not None
        assert series.value == 1
        assert collector.spans_dropped == 1
        dump = registry.to_dict()
        assert any(entry["name"] == "trace.spans_dropped" for entry in dump["series"])

    def test_critical_path_follows_latest_finish(self):
        sim = Simulator()
        collector = SpanCollector(sim)
        root = collector.request("r", 1)
        fast = root.child("fast")
        slow = root.child("slow")
        sim._now = 1.0
        fast.finish("ok")
        sim._now = 3.0
        slow_child = slow.child("slow.inner")
        sim._now = 4.0
        slow_child.finish("retried")
        slow.finish("ok")
        root.finish("ok")
        path = collector.critical_path(1)
        assert [span.name for span in path] == ["r", "slow", "slow.inner"]
        text = collector.format_critical_path(1)
        assert "slow.inner" in text and "retried" in text

    def test_critical_path_of_unknown_trace(self):
        collector = SpanCollector(Simulator())
        assert collector.critical_path(99) == []
        assert "no trace recorded" in collector.format_critical_path(99)

    def test_chrome_trace_export_is_valid_json(self):
        sim = Simulator()
        collector = SpanCollector(sim)
        root = collector.request("r", 1, policy={"max": 3}, rate=float("inf"))
        sim._now = 1e-6
        root.finish("ok", nbytes=64)
        open_span = root.child("still.open")
        document = collector.to_chrome_trace(pid=7)
        json.dumps(document)  # strictly serialisable, exotic attrs and all
        events = document["traceEvents"]
        spans = [e for e in events if e["ph"] == "X"]
        metadata = [e for e in events if e["ph"] == "M"]
        assert len(spans) == 2
        complete = spans[0]
        # Both spans fold to the "other" component: one process, pid
        # namespaced under the collector's pid, named for Perfetto.
        other_pid = 7 * 100 + COMPONENTS.index("other")
        assert complete["pid"] == other_pid and complete["tid"] == 1
        assert complete["ts"] == pytest.approx(0.0)
        assert complete["dur"] == pytest.approx(1.0)  # microseconds
        assert complete["args"]["outcome"] == "ok"
        assert complete["args"]["bytes"] == 64
        assert spans[1]["args"]["outcome"] == "open"
        assert open_span.end is None
        names = {e["name"]: e for e in metadata}
        assert names["process_name"]["args"]["name"] == "sim7 other"
        assert names["thread_name"]["tid"] == 1
        assert names["process_sort_index"]["args"]["sort_index"] == COMPONENTS.index("other")

    def test_chrome_trace_groups_spans_by_component(self):
        sim = Simulator()
        collector = SpanCollector(sim)
        root = collector.request("write_request", 9)
        root.child("net.write_request").finish()
        root.child("admission.shed").finish("shed")
        root.finish("shed")
        document = collector.to_chrome_trace(pid=1)
        by_pid = {}
        for event in document["traceEvents"]:
            if event["ph"] == "M" and event["name"] == "process_name":
                by_pid[event["pid"]] = event["args"]["name"]
        assert set(by_pid.values()) == {"sim1 client", "sim1 net", "sim1 admission"}
        spans = [e for e in document["traceEvents"] if e["ph"] == "X"]
        for span in spans:
            assert by_pid[span["pid"]].endswith(component_of(span["name"]))

    def test_write_chrome_trace(self, tmp_path):
        sim = Simulator()
        collector = SpanCollector(sim)
        collector.request("r", 1).finish("ok")
        path = tmp_path / "trace.json"
        collector.write_chrome_trace(str(path))
        document = json.loads(path.read_text())
        assert document["traceEvents"]

    def test_detach_restores_untraced_sim(self):
        sim = Simulator()
        collector = SpanCollector(sim)
        assert sim._span_collector is collector
        collector.detach()
        assert sim._span_collector is None

    def test_invalid_limit(self):
        with pytest.raises(ValueError):
            SpanCollector(Simulator(), limit=0)


class TestEndToEndTraces:
    @pytest.mark.parametrize("tier_factory", TIER_FACTORIES, ids=TIER_IDS)
    def test_every_write_request_traces_completely(self, tier_factory):
        sim = Simulator()
        collector = SpanCollector(sim)
        testbed = Testbed(sim, n_storage_servers=3)
        tier = tier_factory(sim, testbed)
        _write_then_locate(sim, tier, testbed, n_writes=8)
        sim.run()

        assert len(collector.trace_ids) == 8
        for trace_id in collector.trace_ids:
            root = collector.root(trace_id)
            assert root is not None and root.name == "write_request"
            assert root.outcome == "ok"
            spans = collector.trace(trace_id)
            # At least one *complete* child span per request beyond the root.
            assert any(s.end is not None and s.parent_id is not None for s in spans)
            names = {s.name for s in spans}
            assert "client.tx" in names
            assert "net.write_request" in names
            assert any(s.name == "storage.write" and s.outcome == "ok" for s in spans)

    @pytest.mark.parametrize("tier_factory", TIER_FACTORIES, ids=TIER_IDS)
    def test_failover_read_records_one_ok_attempt(self, tier_factory):
        """Satellite: N attempt spans, exactly one ``ok``, the rest retried."""
        sim = Simulator()
        collector = SpanCollector(sim)
        testbed = Testbed(sim, n_storage_servers=5)
        tier = tier_factory(sim, testbed)
        driver, locations = _write_then_locate(sim, tier, testbed)
        testbed.server(locations[0]).fail()  # the replica attempt 1 targets

        sim.run(until=driver.run_reads([0], concurrency=1))
        sim.run()

        read_ids = [
            tid for tid in collector.trace_ids
            if collector.root(tid) is not None and collector.root(tid).name == "read_request"
        ]
        assert len(read_ids) == 1
        spans = collector.trace(read_ids[0])
        attempts = [s for s in spans if s.name == "read.attempt"]
        assert len(attempts) >= 2  # primary timed out, fail-over succeeded
        outcomes = [s.outcome for s in attempts]
        assert outcomes.count("ok") == 1
        assert all(outcome == "retried" for outcome in outcomes if outcome != "ok")
        # The timed-out attempt names the dead replica.
        assert attempts[0].attrs["server"] == locations[0]
        assert collector.root(read_ids[0]).outcome == "ok"

    @pytest.mark.parametrize("tier_factory", TIER_FACTORIES, ids=TIER_IDS)
    def test_unavailable_read_critical_path_names_the_giveup(self, tier_factory):
        sim = Simulator()
        collector = SpanCollector(sim)
        testbed = Testbed(sim, n_storage_servers=5)
        tier = tier_factory(sim, testbed)
        driver, locations = _write_then_locate(sim, tier, testbed)
        for address in locations:
            testbed.server(address).fail()

        sim.run(until=driver.run_reads([0], concurrency=1))
        sim.run()

        read_ids = [
            tid for tid in collector.trace_ids
            if collector.root(tid) is not None and collector.root(tid).name == "read_request"
        ]
        assert len(read_ids) == 1
        root = collector.root(read_ids[0])
        assert root.outcome == "failed"
        path = collector.critical_path(read_ids[0])
        names = [span.name for span in path]
        assert "read.unavailable" in names
        giveup = next(span for span in path if span.name == "read.unavailable")
        assert giveup.outcome == "failed"
        assert giveup.attrs["max_attempts"] >= 1  # RetryPolicy.describe()
        text = collector.format_critical_path(read_ids[0])
        assert "read.unavailable" in text and "failed" in text


    @pytest.mark.parametrize("tier_factory", TIER_FACTORIES, ids=TIER_IDS)
    def test_storage_side_miss_marks_read_not_found(self, tier_factory):
        """A replica that answers without a payload ends the read
        ``not_found``, and the request's trace records the verdict."""
        sim = Simulator()
        collector = SpanCollector(sim)
        testbed = Testbed(sim, n_storage_servers=5)
        tier = tier_factory(sim, testbed)
        driver, locations = _write_then_locate(sim, tier, testbed)
        # The tier maps LBA 100 to LBA 0's replicas, which never stored it.
        tier._block_locations[(0, 100)] = locations

        result = sim.run(until=driver.run_reads([100], concurrency=1))
        sim.run()

        assert result.failures == ((100, "not_found"),)
        read_ids = [
            tid for tid in collector.trace_ids
            if collector.root(tid) is not None and collector.root(tid).name == "read_request"
        ]
        assert len(read_ids) == 1
        spans = collector.trace(read_ids[0])
        verdicts = [s for s in spans if s.name == "read.not_found"]
        assert len(verdicts) == 1
        assert verdicts[0].outcome == "failed"
        assert [s.attrs["server"] for s in spans if s.name == "read.attempt"] == [
            locations[0]
        ]
        assert collector.root(read_ids[0]).outcome == "failed"


class TestTraceSession:
    def test_attaches_to_sims_created_inside_only(self):
        before = Simulator()
        with TraceSession(sample_interval=None) as session:
            inside = Simulator()
        after = Simulator()
        assert before._span_collector is None
        assert inside._span_collector is session.collectors[0]
        assert inside._metrics_registry is session.registries[0]
        assert after._span_collector is None
        assert len(session.collectors) == 1

    def test_merged_chrome_trace_namespaces_pids_per_sim(self):
        with TraceSession(sample_interval=None) as session:
            for _ in range(2):
                sim = Simulator()
                sim._span_collector.request("r", 1).finish("ok")
        document = session.to_chrome_trace()
        # Component pids are namespaced per collector: sim N's processes
        # live in [N*100, N*100+len(COMPONENTS)).
        pids = {event["pid"] for event in document["traceEvents"]}
        assert {pid // 100 for pid in pids} == {1, 2}
        assert session.total_spans == 2
        assert session.total_traces == 2

    def test_sampler_runs_and_still_drains(self):
        with TraceSession(sample_interval=usec(100)):
            sim = Simulator()
            gauge = sim._metrics_registry.gauge("depth")

            def work():
                for level in range(5):
                    gauge.set(level)
                    yield sim.timeout(usec(250))

            sim.process(work())
            sim.run()  # drain mode: the daemon sampler must not wedge this
            samples = sim._metrics_registry.samples()
            assert len(samples) >= 5
            assert any(sample["gauges"] for sample in samples)

    def test_interesting_trace_prefers_non_ok(self):
        with TraceSession(sample_interval=None) as session:
            sim = Simulator()
            sim._span_collector.request("boring", 1).finish("ok")
            spicy = sim._span_collector.request("spicy", 2)
            spicy.child("read.attempt").finish("retried")
            spicy.finish("ok")
        collector, trace_id = session.interesting_trace()
        assert trace_id == 2

    def test_interesting_trace_falls_back_to_slowest(self):
        with TraceSession(sample_interval=None) as session:
            sim = Simulator()
            fast = sim._span_collector.request("fast", 1)
            sim._now = 1.0
            fast.finish("ok")
            slow = sim._span_collector.request("slow", 2)
            sim._now = 5.0
            slow.finish("ok")
        _collector, trace_id = session.interesting_trace()
        assert trace_id == 2

    def test_empty_session(self):
        with TraceSession(sample_interval=None) as session:
            pass
        assert session.interesting_trace() is None
        assert session.to_chrome_trace() == {"traceEvents": [], "displayTimeUnit": "ns"}


class TestZeroCostDiscipline:
    def test_untraced_message_carries_no_span(self):
        sim = Simulator()
        assert sim._span_collector is None
        message = Message("write_request", "a", "b")
        assert message.span is None

    def test_untraced_guard_cost_is_negligible(self):
        """The whole untraced cost is one attribute load + ``is not None``.

        Bound it in absolute terms: the guard must stay orders of
        magnitude below the cheapest simulated event's bookkeeping
        (~1 us of host time), so an untraced run cannot measurably
        differ from the uninstrumented seed.
        """
        message = Message("write_request", "a", "b")
        n = 200_000
        best = float("inf")
        for _ in range(5):
            started = time.perf_counter()
            for _ in range(n):
                if message.span is not None:  # the instrumented hot path
                    raise AssertionError("untraced message grew a span")
            best = min(best, time.perf_counter() - started)
        per_site = best / n
        assert per_site < 1e-6  # < 1 us per instrumentation site

    def test_untraced_sites_allocate_nothing(self):
        """Telemetry-off sites build no label dicts, f-strings, or spans.

        Deterministic (allocation-counting, not timing): run the guards a
        site executes on an untraced simulator many times and require the
        net traced allocation to stay flat — an accidental per-iteration
        allocation would grow it by at least n * minimum-object-size.
        """
        import tracemalloc

        sim = Simulator()
        message = Message("write_request", "a", "b")
        collector = sim._span_collector
        n = 10_000
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            for _ in range(n):
                if collector is not None:  # generator-side site
                    raise AssertionError("collector attached unexpectedly")
                if message.span is not None:  # transport/server-side site
                    raise AssertionError("untraced message grew a span")
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Allow slack for interpreter-internal bookkeeping, but far less
        # than one object per iteration (n * 16 bytes minimum).
        assert after - before < 4096

    def test_untraced_hot_path_within_five_percent_of_uninstrumented(self):
        """The guarded hot path times within 5% of the same path unguarded.

        The measured unit is the real generator hot-path slice (build a
        request message and its reply event, as ``workloads.generators``
        does per request); the guarded variant adds the two telemetry
        checks that slice executes when tracing is off. Samples are
        interleaved plain/guarded within every round so drift in machine
        load hits both variants equally, and min-of-rounds absorbs the
        remaining noise.
        """
        sim = Simulator()
        n = 20_000

        def plain():
            event = sim.event
            started = time.perf_counter()
            for seq in range(n):
                message = Message("write_request", "a", "b")
                event(name="reply")
            return time.perf_counter() - started

        def guarded():
            event = sim.event
            collector = sim._span_collector
            started = time.perf_counter()
            for seq in range(n):
                message = Message("write_request", "a", "b")
                if collector is not None:  # generator instrumentation site
                    raise AssertionError("collector attached unexpectedly")
                if message.span is not None:  # transport instrumentation site
                    raise AssertionError("untraced message grew a span")
                event(name="reply")
            return time.perf_counter() - started

        plain()  # warm up allocator and caches
        guarded()
        best_plain = best_guarded = float("inf")
        for _ in range(9):
            best_plain = min(best_plain, plain())
            best_guarded = min(best_guarded, guarded())
        assert best_guarded <= best_plain * 1.05
