#!/usr/bin/env python3
"""Builds and runs the repository benchmark for one workload.

    python3 perfbench/run.py --workload enum|lookup|mixed --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. The benchmark binary is built from the
checkout's own sources into $CARGO_TARGET_DIR (default .bench_build), then
run with the workload's settings from perfbench/workloads.json. The last
line of stdout is the result object; per-run details (workload
properties, ladder rungs, spans) land in <build dir>/perfbench-out/.

    python3 perfbench/run.py --self-test

builds and runs the benchmark's own tests instead.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir, targets):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs, "--target", *targets],
    ]
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            sys.exit(1)


def workload_flags(settings):
    flags = []
    for key, value in settings.items():
        if isinstance(value, list):
            value = ",".join(str(v) for v in value)
        flags += ["--" + key, str(value)]
    return flags


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    with open(os.path.join(HERE, "workloads.json")) as f:
        workloads = json.load(f)["workloads"]
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    if args.self_test:
        build(build_dir, ["perfbench_selftest"])
        sys.exit(subprocess.run([os.path.join(build_dir, "perfbench_selftest")],
                                cwd=build_dir).returncode)

    if args.workload not in workloads or args.seed is None or \
            args.seconds is None or args.seconds <= 0:
        ap.error("need --workload {%s} --seed N --seconds S"
                 % ",".join(workloads))
    build(build_dir, ["perfbench"])
    out_dir = os.path.join(build_dir, "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out_dir] + workload_flags(workloads[args.workload]["args"])
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        sys.exit(1)
    sys.stdout.write(proc.stdout)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
