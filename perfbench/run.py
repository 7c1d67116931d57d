#!/usr/bin/env python3
"""Builds and runs the perfbench benchmark for one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload train-wide --seed 1 --seconds 40 --trace 0

The first call configures and builds the benchmark (the repository's
libraries from ../src plus perfbench.cc) into .bench_build/perfbench; later
calls only rebuild what changed. Build output goes to stderr. The program's
own stdout is passed through: its last line is one JSON object with the
keys correct, attempted, failed and metrics. The exit code is the
program's: 0 only when every output check passed. Without the library
sources (a directory holding only the benchmark) the build fails and the
script exits 1 without printing a result.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("train-wide", "train-splits", "serve")


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", "4"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return None
    return os.path.join(BUILD, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 1
    done = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        stdout=subprocess.PIPE, text=True, cwd=ROOT)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if done.returncode == 0 and not isinstance(result, dict):
        print("perfbench: no result line", file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
