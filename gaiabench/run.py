#!/usr/bin/env python3
"""Build and run the Gaia benchmark.

    python3 gaiabench/run.py --workload WORKLOAD --seed N --seconds S \
        --trace 0|1

WORKLOAD is online_hot, online_cold, monthly_cycle, or all (each workload in
turn, each in its own process). Run it from the repository root. The first
run configures gaiabench/CMakeLists.txt, which builds the repository's own
libraries and the gaia_benchmark binary, into .bench_build/; later runs only
rebuild what changed. Build output goes to standard error.

Standard output carries gaia_benchmark's report lines and, as its last line,
one JSON object {"correct", "attempted", "failed", "metrics"}: the end_to_end
metrics of BENCHMARK.json with --trace 0, its per_layer metrics with
--trace 1. The script checks the metric names and units against
BENCHMARK.json and exits non-zero, without a result line, if the build
fails, gaia_benchmark fails, or the metrics do not match. A wrong answer
makes gaia_benchmark print "correct": false and exit 1.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "cmake")
WORK_DIR = os.path.join(ROOT, ".bench_build", "work")
BINARY = os.path.join(BUILD_DIR, "gaia_benchmark")
WORKLOADS = ("online_hot", "online_cold", "monthly_cycle")
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "gaiabench"), "-B",
                      BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "gaia_benchmark",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode:
            fail("build step failed: " + " ".join(step))


def expected_metrics(trace):
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as err:
        fail("cannot read BENCHMARK.json: %s" % err)
    group = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def run_workload(workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, report lines, result dict)."""
    command = [BINARY, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--workdir", WORK_DIR]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    lines = done.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("%s printed no result (exit %d)" % (workload, done.returncode))
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = expected_metrics(trace)
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(got) & set(want) if got[n] != want[n])
        fail("%s metrics differ from BENCHMARK.json: missing %s, extra %s, "
             "unit %s" % (workload, missing, extra, wrong))
    return done.returncode, lines[:-1], result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")

    build()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    code = 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    result = None
    for workload in workloads:
        rc, report, result = run_workload(workload, args.seed, args.seconds,
                                          args.trace)
        code = code or rc
        for line in report:
            print(line)
        if len(workloads) > 1:
            print(json.dumps(result))
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][workload + "." + name] = metric
    print(json.dumps(combined if len(workloads) > 1 else result))
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
