#!/usr/bin/env python3
"""The repository benchmark: build, set up, measure, check, report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. It builds the library and the perfbench
binary from source into .bench_build/perfbench (CMake, Release), times
the binary's set-up, runs it for S seconds and prints a report followed
by one JSON line with the keys correct, attempted, failed and metrics:
the end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer
metrics with --trace 1. The traced run also writes its spans to
.bench_build/perfbench/spans/<workload>-seed<N>.json. Exits non-zero
when the build fails or any output check fails.

Workloads (BENCHMARK.json says why each was chosen):
  fig02-gatk4         paper Fig. 2, GATK4 under the four Table III configs
  terasort-pagecache  `doppio run terasort` defaults, then Fig. 12
  plan                closed-loop query mix through the planning service

An operation is one simulated application run, one model fit or one
plan query; "cold" operations start with nothing cached. End-to-end
metrics (untraced passes, medians over passes):
  setup_s      median over several launches of the binary's set-up
  wall_s       host seconds of one pass
  cold_op_ms   median host ms of a cold operation (plan: a cold query)
  peak_rss_mb  peak resident memory of the measuring process
The report also prints plan_cold_ms, plan_warm_ms and plan_qps on
`plan`, and model_error_pct (Eq. 1 against exp) on terasort-pagecache.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
DEFAULT_SEED = 42  # the paper binaries' seed: reference results apply
SETUP_LAUNCHES = 21
DEADLINE_S = 170  # the whole run, build excluded, stays under this


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure and build; the build log goes to the build tree."""
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(BUILD),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD), "-j", jobs],
    ]
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.flush()
                tail = log_path.read_text().splitlines()[-20:]
                fail("build failed:\n" + "\n".join(tail))


def time_setup(workload, seed):
    """Median wall seconds from launching the binary to the end of its
    set-up: process start, inputs from the seed, cluster provisioning."""
    samples = []
    for _ in range(SETUP_LAUNCHES):
        start = time.perf_counter()
        done = subprocess.run([str(BINARY), "--workload", workload,
                               "--seed", str(seed), "--setup-only"],
                              stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - start)
        if done.returncode != 0:
            fail("set-up failed")
    return statistics.median(samples)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r} (one of {names})")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build()
    started = time.monotonic()
    setup_s = time_setup(args.workload, args.seed)

    command = [str(BINARY), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--reference", str(HERE / "reference" /
                                  f"{args.workload}.txt")]
    if args.trace:
        spans = BUILD / "spans" / f"{args.workload}-seed{args.seed}.json"
        spans.parent.mkdir(exist_ok=True)
        command += ["--spans", str(spans)]
    try:
        done = subprocess.run(
            command, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, DEADLINE_S - (time.monotonic() - started)))
    except subprocess.TimeoutExpired:
        fail("the measured run did not finish in time")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail(f"the binary printed nothing (exit {done.returncode})")
    result = json.loads(lines[-1])
    measured = result["metrics"]
    measured["setup_s"] = {"value": setup_s, "unit": "s"}

    untraced, traced = result["passes"]
    print(f"== {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{untraced} untraced + {traced} traced passes, "
          f"{result['attempted']} operations, {result['failed']} failed")
    for name, metric in measured.items():
        print(f"  {name:34s} {metric['value']:>16.6g} {metric['unit']}")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    if args.trace:
        print(f"  spans written to {spans.relative_to(ROOT)}")

    metrics = {}
    for metric in wanted:
        if metric["name"] not in measured:
            fail(f"the binary did not report {metric['name']}")
        metrics[metric["name"]] = measured[metric["name"]]
    correct = bool(result["correct"]) and done.returncode == 0
    print(json.dumps({"correct": correct,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
