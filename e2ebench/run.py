#!/usr/bin/env python3
"""Builds and runs the JOCL end-to-end benchmark.

Run from the root of a source checkout:

    python3 e2ebench/run.py --workload ingest-longtail --seed 1 \
        --seconds 25 --trace 0

The first run configures and builds the benchmark (the jocl library from
the checkout's sources plus e2ebench/jocl_e2ebench.cc) in Release mode
under $CARGO_TARGET_DIR, or .bench_build when that is unset. Later runs
only rebuild what changed. Build output goes to stderr, so the last line
of stdout is the benchmark's JSON result. With --trace 1 the Chrome trace
of the run is written to <build dir>/traces/.

Exit code: the benchmark's own (0 = every check passed), or 1 when the
build or the run fails before a result is printed.
"""

import argparse
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("ingest-longtail", "ingest-head", "serve-churn")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(out_dir):
    """Configures (once) and builds the benchmark binary; returns its path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out_dir, "Makefile")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "--target", "jocl_e2ebench",
                  "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"build step failed: {err}", file=sys.stderr)
            return None
        if done.returncode != 0:
            print(f"build step failed: {' '.join(step)}", file=sys.stderr)
            return None
    binary = os.path.join(out_dir, "jocl_e2ebench")
    return binary if os.path.exists(binary) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny worlds, one set-up; for the self-test")
    parser.add_argument("--inject", choices=("wrong-body", "lost-generation"),
                        help="inject a fault the checks must count")
    args = parser.parse_args()

    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        return 1
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        traces = os.path.join(out_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, f"{args.workload}-seed{args.seed}.json")]
    if args.smoke:
        command.append("--smoke")
    if args.inject:
        command += ["--inject", args.inject]
    sys.stdout.flush()
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S,
                              check=False).returncode
    except subprocess.TimeoutExpired:
        print(f"benchmark run exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
