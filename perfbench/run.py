#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload steady-10k --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --all [--seed 1] [--seconds 25] [--trace 0|1]

The first form runs one workload and ends its standard output with one JSON
line ({"correct", "attempted", "failed", "metrics"}).  --all runs every
workload in turn and prints one table of every metric with its unit.

The benchmark binary is built from source (perfbench/CMakeLists.txt pulls in
../src) in a Release (NDEBUG) configuration under $CARGO_TARGET_DIR, default
.bench_build, relative to the repository root.  Build output goes to
standard error.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["steady-10k", "spec-1k", "paper-grid", "whatif-service"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configure and build (both no-ops when current); returns the binary
    path, or exits 1 without printing a result."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "-j", jobs]]
    for step in steps:
        try:
            done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as error:
            sys.exit(f"perfbench: build step failed: {error}")
        if done.returncode != 0:
            sys.exit(f"perfbench: build step {' '.join(step)} failed")
    return os.path.join(out, "perfbench")


def run_one(binary, workload, seed, seconds, trace):
    """Run one workload; returns (stdout before the result line, the result
    line as printed, the result parsed)."""
    spans = os.path.join(build_dir(), f"spans-{workload}-{seed}.jsonl")
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        command += ["--spans", spans]
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        sys.stdout.write(done.stdout)
        sys.exit(f"perfbench: {workload} exited with {done.returncode}")
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write(done.stdout)
        sys.exit(f"perfbench: {workload} printed no result line")
    return "\n".join(lines[:-1]), lines[-1], result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true",
                        help="run every workload and print one table")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not args.all and args.workload is None:
        parser.error("give --workload <name> or --all")

    binary = build()
    if not args.all:
        text, line, _ = run_one(binary, args.workload, args.seed,
                                args.seconds, args.trace)
        print(text)
        print(line)
        return

    rows = []
    for workload in WORKLOADS:
        text, _, result = run_one(binary, workload, args.seed, args.seconds,
                                  args.trace)
        print(text, flush=True)
        print()
        ratio = result["failed"] / result["attempted"]
        rows.append((workload, "op_failure_ratio", ratio,
                     f"{result['failed']}/{result['attempted']}"))
        for name, metric in result["metrics"].items():
            rows.append((workload, name, metric["value"], metric["unit"]))
    print(f"{'workload':<16} {'metric':<34} {'value':>18} unit")
    for workload, name, value, unit in rows:
        print(f"{workload:<16} {name:<34} {value:>18.6f} {unit}")
    if any(r[1] == "op_failure_ratio" and r[2] > 0 for r in rows):
        sys.exit(1)


if __name__ == "__main__":
    main()
