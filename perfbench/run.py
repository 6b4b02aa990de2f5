#!/usr/bin/env python3
"""Builds the benchmark program from source and runs one workload.

Usage (from the repository root):
  python3 perfbench/run.py --workload <embed-fr|systems-sweep|serve-refresh>
                           --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --selftest

The benchmark program and the omega libraries are compiled into .bench_build/ with the
project's default build type. Build output goes to standard error; the last
line of standard output is the program's JSON result. --selftest builds and
runs the self-test of the benchmark's correctness checks.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
# Per-run limit; a run is expected to take well under it.
RUN_TIMEOUT_S = 170
BUILD_JOBS = 4


def build(targets):
    """Configures and builds `targets`; False when either step fails."""
    configure = ["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if subprocess.call(configure, stdout=sys.stderr, cwd=ROOT) != 0:
        return False
    command = ["cmake", "--build", BUILD, "-j", str(BUILD_JOBS), "--target"]
    return subprocess.call(command + targets, stdout=sys.stderr, cwd=ROOT) == 0


def run(command):
    """Runs `command` from the repository root and returns its exit code."""
    process = subprocess.Popen(command, cwd=ROOT)
    try:
        return process.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=["embed-fr", "systems-sweep", "serve-refresh"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    target = "perfbench_selftest" if args.selftest else "perfbench"
    if not build([target]):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    command = [os.path.join(BUILD, target)]
    if not args.selftest:
        command += ["--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace)]
    return run(command)


if __name__ == "__main__":
    sys.exit(main())
