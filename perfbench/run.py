"""The posetcube benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Times one workload (see README.md in this directory) for S seconds in a
fresh process, checks every output with the benchmark's own code, and
prints two lines: a JSON record of the run (environment, output digest,
sample counts, errors) and, last, the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones of a traced run.  Both lines are also appended to
.perfbench-runs/results.jsonl at the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import clock
import proc
from workload import CLI_TIMEOUT_S, WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 7
SETUP_TIMEOUT_S = 10
# The measuring process gets time for one CLI op that overruns the window.
# If it still runs after that, its whole process group is killed.
MEASURE_SLACK_S = CLI_TIMEOUT_S + 30

END_TO_END_UNITS = {
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "verified_rate": "share",
    "setup_s": "s",
}


class BenchError(Exception):
    """A run that cannot produce a result."""


def nearest_rank(sorted_values: list[float], share: float) -> float:
    return sorted_values[math.ceil(share * len(sorted_values)) - 1]


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=proc.ROOT,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(proc.ROOT.parent)),
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "commit": commit or "unknown",
    }


def run_workload(
    name: str, seed: int, seconds: int, trace: int
) -> tuple[dict, list[tuple[float, float]], int]:
    """Set-up probes, then the measuring process.

    Returns the measuring process's report, each probe's set-up time with
    its factor to reference speed, and the measuring process's peak RSS.
    """
    script = str(HERE / "workload.py")
    setup = []
    for _ in range(SETUP_PROBES):
        before = clock.loop_ns()
        child = proc.spawn(
            [script, name, str(seed), "0", "0", "--setup-only"], SETUP_TIMEOUT_S, own_group=True
        )
        if child.returncode != 0 or child.ready_s is None:
            raise BenchError(f"set-up of {name} failed with exit code {child.returncode}")
        setup.append((child.ready_s, clock.scale(before, clock.loop_ns())))
    child = proc.spawn(
        [script, name, str(seed), str(seconds), str(trace)],
        seconds + MEASURE_SLACK_S,
        own_group=True,
    )
    if child.returncode != 0:
        raise BenchError(f"measuring {name} failed with exit code {child.returncode}")
    report = json.loads(child.stdout.splitlines()[-1])
    return report, setup, child.maxrss_kb


def timings(report: dict, setup: list[tuple[float, float]], scaled: bool) -> dict[str, float]:
    """Latency, throughput and set-up figures, at reference speed or as measured."""
    factors = report["scale"] if scaled else [1.0] * len(report["scale"])
    latencies = sorted(ns / 1e6 * f for ns, f in zip(report["latency_ns"], factors))
    return {
        "op_ms_p50": statistics.median(latencies),
        "op_ms_p90": nearest_rank(latencies, 0.9),
        "ops_per_s": sum(report["ok"]) / (sum(latencies) / 1e3),
        "setup_s": statistics.median(s * f if scaled else s for s, f in setup),
    }


def end_to_end(report: dict, setup: list[tuple[float, float]], maxrss_kb: int) -> dict:
    values = timings(report, setup, scaled=True)
    values["peak_rss_mb"] = (report["child_maxrss_kb"] or maxrss_kb) / 1024
    values["verified_rate"] = sum(report["ok"]) / len(report["ok"])
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (proc.SRC / "posetcube" / "__init__.py").is_file():
        print(f"perfbench: no posetcube sources under {proc.SRC}", file=sys.stderr)
        return 2
    proc.RUNS.mkdir(exist_ok=True)
    env = environment()
    # One CPU for this process and every child, so that the reference loop
    # of clock.py measures the speed of the CPU the ops run on.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    try:
        report, setup, maxrss_kb = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    attempted = len(report["ok"])
    failed = attempted - sum(report["ok"])
    samples = attempted - sum(report["traced"])
    if args.trace:
        metrics = report["layers"]
    else:
        metrics = end_to_end(report, setup, maxrss_kb)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "cpu_used": cpu,
        "error_rate": failed / attempted,
        "timed_samples": samples,
        "samples_beyond_p90": samples - math.ceil(0.9 * samples),
        "digest": report["digest"],
        "digest_ops": report["digest_ops"],
        "branches": report["branches"],
        "wall_clock": timings(report, setup, scaled=False),
        "loop_ms_median": statistics.median(report["loop_ns"]) / 1e6,
        "setup_samples_s": [s for s, _ in setup],
        "errors": report["errors"],
    }
    for key in ("absent", "self_shares", "trace_file"):
        if key in report:
            info[key] = report[key]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(proc.RUNS / "results.jsonl", "a") as log:
        log.write(json.dumps({"info": info, "result": result}) + "\n")
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
