#!/usr/bin/env python3
"""Steadiness study of the end-to-end benchmark.

Run from the root of a source checkout:

    python3 e2ebench/steadiness.py --runs 10 [--workloads ingest-head ...]

Runs each workload --runs times with a different --seed each time (seeds
1..runs, or from --first-seed), then prints, per end-to-end metric, the
median and the spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median. The spread
of the host calibration loop (host.calib_s, printed by every run as
"host calib: start ... end ...") stands beside it, so host drift can be
told from a regression. The result is a markdown table on stdout; --json
also writes every raw value to a file.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
CALIB = re.compile(r"host calib: start ([0-9.]+)s end ([0-9.]+)s")


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", trace]
    start = time.monotonic()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          check=False)
    wall = time.monotonic() - start
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed:\n{done.stdout[-3000:]}"
                 f"\n{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    calib = CALIB.search(done.stdout)
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if calib:
        values["host.calib_s"] = (float(calib.group(1)) +
                                  float(calib.group(2))) / 2
    return result, values, wall


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--json", help="write the raw values here")
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    raw = {}
    print("| workload | metric | median | spread | bound |")
    print("|---|---|---|---|---|")
    for workload in args.workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result, values, wall = run_once(workload, seed, args.seconds,
                                            args.trace)
            if not result["correct"] or result["failed"]:
                sys.exit(f"{workload} seed {seed}: {result['failed']} "
                         "failed operations")
            runs.append(values)
            print(f"{workload} seed {seed} ({wall:.0f}s): " + ", ".join(
                f"{k}={v:.5g}" for k, v in values.items()), file=sys.stderr)
        raw[workload] = runs
        for name in runs[0]:
            values = [r[name] for r in runs]
            bound = bounds.get(name)
            print(f"| {workload} | {name} | {statistics.median(values):.5g} "
                  f"| {spread(values):.3f} | "
                  f"{'' if bound is None else bound} |", flush=True)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(raw, f, indent=1)


if __name__ == "__main__":
    main()
