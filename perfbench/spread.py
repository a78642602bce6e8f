#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

    python3 perfbench/spread.py --workloads enum,lookup --seeds 1-10 \
        [--trace 0|1] [--seconds S] [--record perfbench/baseline.json]

For every end-to-end metric it prints the median of the runs and the
distance between the first and third quartile (statistics.quantiles,
n=4) as a share of the median, next to the metric's bound from
BENCHMARK.json. --record merges the medians, the spreads, the
per-workload properties of the last run and each run's raw values into
the given JSON file (the committed baseline).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_arg(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                           os.path.join(ROOT, ".bench_build")))
    report_path = os.path.join(build, "perfbench-out",
                               f"{workload}-seed{seed}-trace{trace}.report.json")
    with open(report_path) as f:
        report = json.load(f)
    return result, report, wall


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q = statistics.quantiles(values, n=4)
    return med, (q[2] - q[0]) / abs(med)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="enum,lookup,mixed")
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--record")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "workloads.json")) as f:
        whys = {k: v["why"] for k, v in json.load(f)["workloads"].items()}
    seconds = args.seconds or bench["run_seconds"]
    kind = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in bench[kind]}
    recorded = {}
    if args.record and os.path.exists(args.record):
        with open(args.record) as f:
            recorded = json.load(f)

    for workload in args.workloads.split(","):
        values, walls, report = {}, [], None
        for seed in args.seeds:
            result, report, wall = run_once(workload, seed, seconds, args.trace)
            walls.append(wall)
            if not result["correct"] or result["failed"]:
                raise SystemExit(f"{workload} seed {seed}: incorrect result")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"== {workload} (trace {args.trace}, {len(args.seeds)} seeds, "
              f"{seconds} s, wall {min(walls):.1f}-{max(walls):.1f} s)")
        summary = {}
        for name in bounds:
            med, iqr = spread(values[name])
            bound = bounds[name]
            flag = ""
            if bound is not None and name != "setup_s" and iqr > bound / 3:
                flag = "  <-- above a third of the bound"
            print(f"  {name:32s} median {med:14.6g}  iqr/median {iqr:7.4f}"
                  + (f"  bound {bound}" if bound is not None else "") + flag)
            print("      " + " ".join(f"{v:.4g}" for v in values[name]))
            summary[name] = {"median": med, "iqr_share": iqr,
                             "values": values[name]}
        if args.record:
            entry = recorded.setdefault("workloads", {}).setdefault(workload, {})
            entry["trace1" if args.trace else "trace0"] = {
                "seeds": args.seeds, "seconds": seconds, "metrics": summary}
            entry["why"] = whys[workload]
            entry["gated"] = any(w["name"] == workload
                                 for w in bench["workloads"])
            # Traced runs add the ladder-measured properties; the rest
            # come from the untraced runs' request records.
            traced_keys = ("canonical_fallback_ratio", "ladder_mirrored_share")
            entry.setdefault("properties", {}).update(
                {k: v for k, v in report.items()
                 if (k in traced_keys) == bool(args.trace)
                 and k not in ("metrics", "seed", "trace", "rungs")})
    if args.record:
        with open(args.record, "w") as f:
            json.dump(recorded, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
