#!/usr/bin/env python3
"""Builds and runs the real-pipeline benchmark.

    python3 perfbench/run.py --workload ingest|enrich|fresh --seed N \
        --seconds S --trace 0|1

Run it from the root of a checkout. The first run configures and builds the
benchmark, and the library from src/, into .bench_build/; later runs rebuild
only what changed. The benchmark's self-tests run before every measurement.
Build and self-test output goes to stderr; the benchmark's report goes to
stdout, and its last line is the JSON result. With --trace 1 the span dump is
written to .bench_build/traces/<workload>-seed<N>.json.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
# A run must end within 180 s; leave room to report a timeout.
RUN_TIMEOUT_S = 170


def run_quiet(cmd):
    """Runs a build or test step with its output on stderr."""
    return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        if run_quiet(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]) != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return run_quiet(["cmake", "--build", BUILD, "-j", jobs]) == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["ingest", "enrich", "fresh"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if run_quiet([os.path.join(BUILD, "perfbench_selftest")]) != 0:
        print("perfbench: self-tests failed", file=sys.stderr)
        return 1

    cmd = [os.path.join(BUILD, "pipeline_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace == 1:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s-seed%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
