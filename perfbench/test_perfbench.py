"""Tests of the benchmark itself: metric names, attribution, output checks.

Run from the repository root::

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import json
import re
import signal
import subprocess
import time
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
sys.path[:0] = [str(REPO / "src"), str(BENCH_DIR)]

import layers  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from repro.net.message import Message  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def benchmark_json() -> dict:
    return json.loads((REPO / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def timed() -> dict:
    """One small untraced run, shared by the output-check tests."""
    return run.run_child("cpu_only_write", seed=3, seconds=0.1, mode="timed")


def small_run(name: str, seed: int = 3) -> workloads.Workload:
    workload = workloads.WORKLOADS[name](seed, 0.1)
    workload.set_up()
    workload.measure()
    return workload


# -- metric names and units ------------------------------------------------------


def test_every_metric_has_a_valid_name_and_unit() -> None:
    for units in (run.END_TO_END, run.per_layer_units()):
        for name, unit in units.items():
            assert NAME.fullmatch(name) and len(name) <= 64, name
            assert UNIT.fullmatch(unit), (name, unit)


def test_benchmark_json_lists_exactly_the_reported_metrics(benchmark_json: dict) -> None:
    declared = {m["name"]: m["unit"] for m in benchmark_json["end_to_end"]}
    assert declared == run.END_TO_END
    declared = {m["name"]: m["unit"] for m in benchmark_json["per_layer"]}
    assert declared == run.per_layer_units()
    assert [w["name"] for w in benchmark_json["workloads"]] == list(run.WORKLOAD_NAMES)


def test_default_seed_is_the_one_recorded_in_benchmark_json(benchmark_json: dict) -> None:
    command = benchmark_json["command"]
    assert int(command[command.index("--seed") + 1]) == run.DEFAULT_SEED


# -- layer attribution -------------------------------------------------------------


@pytest.mark.parametrize(
    ("filename", "layer"),
    [
        ("/x/src/repro/sim/kernel.py", "sim.kernel"),
        ("/x/src/repro/sim/resources.py", "sim.kernel"),
        ("/x/src/repro/sim/bandwidth.py", "sim.bandwidth"),
        ("/x/src/repro/net/roce.py", "net"),
        ("/x/src/repro/middletier/base.py", "middletier"),
        ("/x/src/repro/telemetry/spans.py", "other"),
        ("/usr/lib/python3.11/heapq.py", "other"),
        (str(BENCH_DIR / "workloads.py"), "workloads"),
    ],
)
def test_layer_of(filename: str, layer: str) -> None:
    assert layers.layer_of(filename) == layer


def test_layer_self_times_sum_to_the_traced_total() -> None:
    traced = run.run_child("smartds_cached_mix", seed=3, seconds=0.1, mode="traced")
    trace = traced["layers"]
    assert sum(trace["self_s"].values()) == pytest.approx(trace["total_s"], rel=1e-9)
    assert all(seconds >= 0 for seconds in trace["self_s"].values())
    assert trace["self_s"]["cache"] > 0 and trace["cache_calls"] > 0
    assert trace["resumes"]["other"] == trace["processes"]["other"] == 0


def test_tracer_restores_what_it_wrapped() -> None:
    from repro.sim.process import Process

    original = Process._resume
    tracer = layers.LayerTracer()
    tracer.install()
    assert Process._resume is not original
    tracer.uninstall()
    assert Process._resume is original


# -- machine-speed calibration ------------------------------------------------------


def test_reference_seconds_scale_by_the_reference_chunks_speed() -> None:
    # Chunks that took twice the reference time: a machine half as fast.
    slow = 10 * speed.REFERENCE_CHUNK_S * 2
    assert speed.reference_seconds(3.0, 10, slow) == pytest.approx(1.5)
    assert speed.reference_seconds(3.0, 0, 0.0) == 3.0


def test_reference_chunk_is_fixed_work_with_the_collector_restored() -> None:
    import gc

    assert speed.reference_chunk() == speed.reference_chunk()
    assert gc.isenabled()


def test_probe_interleaves_chunks_and_restores_the_timer() -> None:
    previous = signal.getsignal(signal.SIGPROF)
    with speed.SpeedProbe(interval_s=0.005) as probe:
        start = time.process_time()
        while time.process_time() - start < 0.2:
            sum(range(1000))
    assert probe.chunks > 0 and probe.chunk_seconds > 0
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGPROF) is previous


def test_timed_run_reports_own_and_calibrated_times(timed: dict) -> None:
    for raw, calibrated in (("setup_s", "setup_ref_s"), ("measure_cpu_s", "measure_ref_s")):
        assert timed[raw] > 0 and timed[calibrated] > 0


# -- determinism ---------------------------------------------------------------------


def test_same_seed_same_digest_other_seed_other_digest() -> None:
    first, again, other = (small_run("cpu_only_write", seed) for seed in (3, 3, 4))
    assert first.results()["digest"] == again.results()["digest"]
    assert first.results()["digest"] != other.results()["digest"]


# -- output checks ----------------------------------------------------------------------


def test_a_correct_run_passes_every_check(timed: dict) -> None:
    assert run.output_checks([timed, copy.deepcopy(timed)], copy.deepcopy(timed)) == []


def test_corrupted_read_back_block_is_caught(monkeypatch: pytest.MonkeyPatch) -> None:
    import repro.net.message as message_module

    decompress = message_module.lz4_decompress
    calls = []

    def corrupting(blob: bytes) -> bytes:
        data = decompress(blob)
        calls.append(len(data))
        if len(calls) == 5:
            data = bytes([data[0] ^ 0xFF]) + data[1:]
        return data

    monkeypatch.setattr(message_module, "lz4_decompress", corrupting)
    workload = small_run("smartds_corpus_write")
    assert len(workload.bad_reads()) == 1
    result = {"sim": workload.results(), "bad_reads": workload.bad_reads()}
    assert any("differ from their source" in p for p in run.output_checks([result]))


def test_forced_non_ok_reply_is_caught(monkeypatch: pytest.MonkeyPatch) -> None:
    reply = Message.reply
    forced = []

    def failing(self: Message, kind: str, payload=None, **header):
        if kind == "write_reply" and not forced:
            forced.append(self.request_id)
            header["status"] = "unavailable"
        return reply(self, kind, payload, **header)

    workload = workloads.WORKLOADS["cpu_only_write"](3, 0.1)
    workload.set_up()
    monkeypatch.setattr(Message, "reply", failing)
    workload.measure()
    result = {"sim": workload.results(), "bad_reads": []}
    assert result["sim"]["not_ok"] == 1
    assert any("not ok" in p for p in run.output_checks([result]))


@pytest.mark.parametrize("key", ["sim_read_p99_us", "events", "core.compression_ratio"])
def test_perturbed_traced_metric_is_caught(timed: dict, key: str) -> None:
    traced = copy.deepcopy(timed)
    traced["sim"][key] = traced["sim"][key] * 1.000001 + 1e-12
    problems = run.output_checks([timed], traced)
    assert len(problems) == 1 and "tracing changed" in problems[0] and key in problems[0]
    problems = run.output_checks([timed, traced])
    assert len(problems) == 1 and "simulated differently" in problems[0] and key in problems[0]


def test_digest_mismatch_is_caught(timed: dict) -> None:
    problems = run.output_checks([timed], expect_digest="0" * 16)
    assert len(problems) == 1 and "expected" in problems[0]


def test_failed_check_exits_non_zero_with_metrics_printed() -> None:
    proc = subprocess.run(
        [
            sys.executable,
            str(BENCH_DIR / "run.py"),
            "--workload",
            "cpu_only_write",
            "--seconds",
            "1",
            "--expect-digest",
            "0" * 16,
        ],
        capture_output=True,
        text=True,
        timeout=170,
        cwd=REPO,
        check=False,
    )
    assert proc.returncode == 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert set(result["metrics"]) == set(run.END_TO_END)
