#!/usr/bin/env python3
"""Builds the polarx benchmark binary from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload tpch_column --seed 1 --seconds 20 --trace 0

The benchmark binary is built with CMake into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench). Its standard output is passed through;
the last line is the JSON result, with the metric set checked against
BENCHMARK.json: every end-to-end metric for --trace 0, every per-layer
metric for --trace 1. A per-layer metric of a layer the workload does not
exercise reads 0.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("polarx sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    if subprocess.run(["cmake", "--build", build_dir, "-j", BUILD_JOBS],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "polarx_perfbench")


def check_metrics(result, registered, trace):
    """Fills per-layer metrics the workload does not reach with 0 and
    refuses unknown, missing or mis-unitted ones."""
    metrics = result["metrics"]
    for name in metrics:
        if name not in registered:
            fail("metric %s is not registered in BENCHMARK.json" % name)
        if metrics[name]["unit"] != registered[name]:
            fail("metric %s has unit %s, registered %s" %
                 (name, metrics[name]["unit"], registered[name]))
    for name, unit in registered.items():
        if name not in metrics:
            if not trace:
                fail("end-to-end metric %s missing" % name)
            metrics[name] = {"value": 0, "unit": unit}
    result["metrics"] = {name: metrics[name] for name in registered}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %s" % args.workload)
    kind = "per_layer" if args.trace else "end_to_end"
    registered = {m["name"]: m["unit"] for m in spec[kind]}

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    binary = build(build_dir)

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        command += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    lines = run.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("no result line (exit code %d)" % run.returncode)
    check_metrics(result, registered, args.trace)
    print(json.dumps(result))
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
