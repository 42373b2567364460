"""End-to-end benchmark of the SmartDS simulator.

Usage, from the repository root::

    python3 perfbench/run.py --workload cpu_only_write --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table each

A run measures one workload in ``REPEATS`` fresh child processes, each
setting up and measuring ``--seconds / REPEATS`` worth of requests of
the same seed; host-time metrics are medians over the children, in CPU
seconds calibrated to the machine's speed while they ran (``speed.py``),
and the children must simulate bit-identical results. ``--trace 0``
reports the end-to-end metrics. ``--trace 1`` adds one traced child and
reports the per-layer metrics; the traced child must simulate what the
untraced ones did. ``--profile`` runs one child under cProfile and prints its
host time folded into the same layers. See ``perfbench/README.md``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is
non-zero when any output check fails; the metrics are still printed.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import gc
import json
import pstats
import resource
import statistics
import subprocess
import sys
import time
import typing
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"

#: The seed used when none is given (also the ``--seed`` in BENCHMARK.json).
DEFAULT_SEED = 1
DEFAULT_SECONDS = 10
#: Untraced child processes per run; host-time metrics are their medians.
REPEATS = 5
CHILD_TIMEOUT_S = 120

WORKLOAD_NAMES = ("smartds_corpus_write", "cpu_only_write", "smartds_cached_mix")

#: name -> unit of every end-to-end metric (``--trace 0``).
END_TO_END = {
    "host_req_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
    "sim_goodput_gbps": "Gb/s",
    "sim_write_p50_us": "us",
    "sim_write_p99_us": "us",
    "sim_read_p50_us": "us",
    "sim_read_p99_us": "us",
}

#: Per-layer metrics read from simulated counters of the untraced runs.
SIM_LAYER_METRICS = {
    "hostmodel.mem_read_gbps": "Gb/s",
    "hostmodel.mem_write_gbps": "Gb/s",
    "hostmodel.pcie_gbps": "Gb/s",
    "core.engine_in_gbps": "Gb/s",
    "core.compression_ratio": "ratio",
    "cache.hit_ratio": "frac",
    "cache.invalidations": "count",
    "storage.backend_reads": "count",
}


def per_layer_units() -> dict[str, str]:
    """name -> unit of every per-layer metric (``--trace 1``)."""
    from layers import LAYERS, PROCESS_LAYERS

    units = {f"{layer}.self_s": "s" for layer in LAYERS}
    for layer in PROCESS_LAYERS:
        units[f"{layer}.resumes"] = "count"
        units[f"{layer}.processes"] = "count"
    units.update(
        {
            "sim.events_per_req": "count/req",
            "sim.processes_per_req": "count/req",
            "compression.compress_mb_per_s": "MB/s",
            "compression.decompress_mb_per_s": "MB/s",
            "compression.calls": "count",
            "cache.calls": "count",
            "trace.overhead_frac": "frac",
        }
    )
    units.update(SIM_LAYER_METRICS)
    return units


# -- child side: one workload, one process -------------------------------------


def run_child(workload_name: str, seed: int, seconds: float, mode: str) -> dict[str, typing.Any]:
    """Set up and measure one workload in this process.

    `mode` is ``timed``, ``traced`` (per-layer attribution) or
    ``profile`` (cProfile of the measured phase).
    """
    from layers import LayerTracer, profile_layers
    from speed import SpeedProbe, reference_seconds
    from workloads import WORKLOADS

    tracer = LayerTracer() if mode == "traced" else None
    profiler = cProfile.Profile() if mode == "profile" else None
    # Only timed runs interleave reference work: in a traced or profiled
    # run it would be charged to whichever layer it interrupted.
    probe = SpeedProbe()
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            # Processes bind the resume method when built: wrap it first.
            tracer.install()
            stack.callback(tracer.uninstall)
        if mode == "timed":
            stack.enter_context(probe)
        start = time.process_time()
        workload = WORKLOADS[workload_name](seed, seconds)
        workload.set_up()
        setup_s = time.process_time() - start
        setup_chunks, setup_chunk_s = probe.mark()
        gc.collect()
        if tracer is not None:
            tracer.reset()
        if profiler is not None:
            profiler.enable()
        before = probe.mark()
        cpu_start, wall_start = time.process_time(), time.perf_counter()
        workload.measure()
        cpu_s = time.process_time() - cpu_start
        wall_s = time.perf_counter() - wall_start
        after = probe.mark()
        if profiler is not None:
            profiler.disable()
    # Own CPU time of each phase, without the reference chunks run in it.
    setup_s -= setup_chunk_s
    measure_chunks, measure_chunk_s = after[0] - before[0], after[1] - before[1]
    cpu_s -= measure_chunk_s

    result: dict[str, typing.Any] = {
        "setup_s": setup_s,
        "setup_ref_s": reference_seconds(setup_s, setup_chunks, setup_chunk_s),
        "measure_cpu_s": cpu_s,
        "measure_ref_s": reference_seconds(cpu_s, measure_chunks, measure_chunk_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "sim": workload.results(),
        "bad_reads": workload.bad_reads(),
    }
    if tracer is not None:
        result["layers"] = {
            "self_s": tracer.layer_seconds(wall_s),
            "total_s": wall_s,
            "resumes": tracer.resumes,
            "processes": tracer.processes,
            "codec": tracer.codec,
            "cache_calls": tracer.cache_calls[0],
        }
    if profiler is not None:
        result["profile_layers"] = profile_layers(pstats.Stats(profiler))
    return result


def spawn_child(workload: str, seed: int, seconds: float, mode: str) -> dict[str, typing.Any]:
    """Run :func:`run_child` in a fresh interpreter and return its result."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--child",
        mode,
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        repr(seconds),
    ]
    proc = subprocess.run(
        command, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{mode} run of {workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- parent side: metrics and output checks -------------------------------------


def end_to_end(timed: list[dict[str, typing.Any]]) -> dict[str, float]:
    """The end-to-end metric values of a run's untraced children."""
    sim = timed[0]["sim"]
    values = {
        "host_req_per_s": statistics.median(
            child["sim"]["requests"] / child["measure_ref_s"] for child in timed
        ),
        "setup_s": statistics.median(child["setup_ref_s"] for child in timed),
        "peak_rss_mb": statistics.median(child["peak_rss_mb"] for child in timed),
    }
    values.update((name, sim[name]) for name in END_TO_END if name not in values)
    return values


def per_layer(
    timed: list[dict[str, typing.Any]], traced: dict[str, typing.Any]
) -> dict[str, float]:
    """The per-layer metric values of a traced child and its untraced twins."""
    from layers import LAYERS, PROCESS_LAYERS

    layers = traced["layers"]
    requests = traced["sim"]["requests"]
    values: dict[str, float] = {f"{layer}.self_s": layers["self_s"][layer] for layer in LAYERS}
    for layer in PROCESS_LAYERS:
        values[f"{layer}.resumes"] = layers["resumes"][layer]
        values[f"{layer}.processes"] = layers["processes"][layer]
    codec = layers["codec"]

    def mb_per_s(op: str) -> float:
        _calls, nbytes, seconds = codec[op]
        return nbytes / 1e6 / seconds if seconds else 0.0

    untraced_cpu_s = statistics.median(child["measure_cpu_s"] for child in timed)
    values.update(
        {
            "sim.events_per_req": traced["sim"]["events"] / requests,
            "sim.processes_per_req": sum(layers["processes"].values()) / requests,
            "compression.compress_mb_per_s": mb_per_s("compress"),
            "compression.decompress_mb_per_s": mb_per_s("decompress"),
            "compression.calls": codec["compress"][0] + codec["decompress"][0],
            "cache.calls": layers["cache_calls"],
            "trace.overhead_frac": traced["measure_cpu_s"] / untraced_cpu_s - 1,
        }
    )
    for name in SIM_LAYER_METRICS:
        values[name] = timed[0]["sim"][name]
    return values


def output_checks(
    timed: list[dict[str, typing.Any]],
    traced: dict[str, typing.Any] | None = None,
    expect_digest: str | None = None,
) -> list[str]:
    """Every reason a run's outputs are wrong; empty when they are right."""
    problems = []
    first = timed[0]
    sim = first["sim"]
    if sim["not_ok"]:
        problems.append(f"{sim['not_ok']} measured or read-back requests were not ok")
    if first["bad_reads"]:
        problems.append(
            f"{len(first['bad_reads'])} read-back blocks differ from their source, "
            f"first at LBA {first['bad_reads'][0]}"
        )
    for index, child in enumerate(timed[1:], start=1):
        differ = [key for key in sim if child["sim"].get(key) != sim[key]]
        if differ:
            problems.append(
                f"untraced runs 0 and {index} of one seed simulated differently: "
                + ", ".join(differ)
            )
    if expect_digest is not None and sim["digest"] != expect_digest:
        problems.append(f"digest {sim['digest']} differs from the expected {expect_digest}")
    if traced is not None:
        differ = [key for key in sim if traced["sim"].get(key) != sim[key]]
        if differ:
            problems.append(f"tracing changed simulated results: {', '.join(differ)}")
    return problems


def report(
    workload: str,
    seed: int,
    timed: list[dict[str, typing.Any]],
    metrics: dict[str, float],
    units: dict[str, str],
    problems: list[str],
) -> dict[str, typing.Any]:
    """Print the human-readable table; return the JSON result."""
    sim = timed[0]["sim"]
    samples = {
        "host_req_per_s": len(timed),
        "setup_s": len(timed),
        "peak_rss_mb": len(timed),
        "ok_frac": sim["requests"],
        "sim_goodput_gbps": sim["requests"],
        "sim_write_p50_us": sim["write_samples"],
        "sim_write_p99_us": sim["write_samples"],
        "sim_read_p50_us": sim["read_samples"],
        "sim_read_p99_us": sim["read_samples"],
    }
    print(f"== {workload} (seed {seed}, {sim['requests']} measured requests per process) ==")
    for name, value in metrics.items():
        count = samples.get(name)
        suffix = f"  n={count}" if count is not None else ""
        print(f"  {name:<34} {value:>14.6g} {units[name]:<10}{suffix}")
    raw_rate = statistics.median(
        child["sim"]["requests"] / child["measure_cpu_s"] for child in timed
    )
    raw_setup = statistics.median(child["setup_s"] for child in timed)
    print(f"  uncalibrated: host_req_per_s {raw_rate:.6g} 1/s, setup_s {raw_setup:.6g} s")
    print(f"  digest {sim['digest']}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    return {
        "correct": not problems,
        "attempted": sim["requests"],
        "failed": sim["not_ok"] + len(timed[0]["bad_reads"]),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def run_workload(
    workload: str, seed: int, seconds: float, trace: bool, expect_digest: str | None
) -> dict[str, typing.Any]:
    """Measure one workload in fresh children, check and report it."""
    share = seconds / REPEATS
    timed = [spawn_child(workload, seed, share, "timed") for _ in range(REPEATS)]
    if not trace:
        problems = output_checks(timed, expect_digest=expect_digest)
        return report(workload, seed, timed, end_to_end(timed), END_TO_END, problems)
    traced = spawn_child(workload, seed, share, "traced")
    problems = output_checks(timed, traced, expect_digest)
    return report(workload, seed, timed, per_layer(timed, traced), per_layer_units(), problems)


def print_profile(workload: str, seed: int, seconds: float) -> None:
    """cProfile one child and print its own time per layer, largest first."""
    profiled = spawn_child(workload, seed, seconds / REPEATS, "profile")
    seconds_by_layer = profiled["profile_layers"]
    total = sum(seconds_by_layer.values())
    print(f"== {workload} (seed {seed}): cProfile own time by layer ==")
    for layer, value in sorted(seconds_by_layer.items(), key=lambda item: -item[1]):
        print(f"  {layer:<14} {value:8.3f} s {value / total:6.1%}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", action="store_true", help="print a cProfile by layer")
    parser.add_argument("--expect-digest", help="fail unless the run's digest equals this")
    parser.add_argument("--child", choices=("timed", "traced", "profile"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC_DIR / "repro").is_dir():
        print(f"error: no simulator sources at {SRC_DIR}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC_DIR), str(BENCH_DIR)]

    if args.child:
        print(json.dumps(run_child(args.workload, args.seed, args.seconds, args.child)))
        return 0
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    if args.profile:
        for name in names:
            print_profile(name, args.seed, args.seconds)
        return 0
    results = {
        name: run_workload(name, args.seed, args.seconds, bool(args.trace), args.expect_digest)
        for name in names
    }
    correct = all(result["correct"] for result in results.values())
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
