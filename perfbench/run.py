#!/usr/bin/env python3
"""Build the machvm benchmark from this checkout and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload churn|mp_resident|file_rw \
        --seed N --seconds S --trace 0|1

The first run configures and builds perfbench/ (which compiles ../src)
into .bench_build/perfbench; later runs only re-check the build.  The
benchmark binary replays the seeded op stream, checks every byte it
reads back, checks that simulated counts repeat exactly, and reports
end-to-end metrics (--trace 0) or per-layer metrics (--trace 1).  The
last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the exit code is 0 only when
such a line was printed.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
EXE = os.path.join(BUILD, "perfbench")
WORKLOADS = ("churn", "mp_resident", "file_rw")
RUN_TIMEOUT_S = 170


def fail(msg, output=""):
    if output:
        sys.stderr.write(output[-4000:] + "\n")
    sys.stderr.write("perfbench: %s\n" % msg)
    sys.exit(1)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            fail("build step failed: %s" % " ".join(cmd), proc.stdout)


def declared_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, if present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        fail("seed must be >= 0 and seconds > 0")

    build()
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        fail("benchmark exited with code %d" % proc.returncode, proc.stdout)
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)

    correct = bool(result["correct"]) and result["failed"] == 0
    for check in result["checks"]:
        status = "ok" if check["ok"] else "FAILED"
        print("check %-24s %s %s" % (check["name"], status, check["detail"]))
    metrics = result["metrics"]
    for name, m in metrics.items():
        if not isinstance(m["value"], (int, float)) or not math.isfinite(
                m["value"]):
            correct = False
            print("metric %s is not a finite number" % name)
    want = declared_metrics(args.trace)
    if want is not None and sorted(want) != sorted(metrics):
        correct = False
        print("metric set differs from BENCHMARK.json: missing %s, extra %s"
              % (sorted(set(want) - set(metrics)),
                 sorted(set(metrics) - set(want))))
    if args.trace:
        closure = metrics.get("sim.closure_diff_ns", {}).get("value")
        if closure != 0:
            correct = False
            print("sim.closure_diff_ns is %r, expected 0" % closure)

    for name, m in metrics.items():
        print("%-36s %20.6f %s" % (name, m["value"], m["unit"]))
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
