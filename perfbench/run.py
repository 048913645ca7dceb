#!/usr/bin/env python3
"""Builds and runs fro's closed-loop benchmark (perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload serve_repeat --seed 1 \
        --seconds 30 --trace 0

The first call configures and builds perfbench/CMakeLists.txt, which
compiles the fro libraries from src/, into .bench_build/perfbench; later
calls only check that the build is up to date. Build output goes to
stderr, so the last stdout line is the benchmark's JSON result. With
--trace 1 the spans of the traced run are written to
.bench_build/traces/<workload>-seed<seed>.jsonl.

Exits 2 without printing a result when the fro sources are missing.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "fro_perfbench")
WORKLOADS = ("serve_repeat", "serve_unique", "analytic_oj")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: fro sources (src/) not found next to perfbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target",
                    "fro_perfbench", "-j", jobs],
                   stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--dump-stream", type=int, default=0,
                        help="print the first N requests and their "
                             "reference digests, then exit")
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        sys.exit(f"perfbench: build failed: {error}")

    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.dump_stream > 0:
        command += ["--dump-stream", str(args.dump_stream)]
    elif args.trace:
        trace_dir = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        command += ["--trace-out", os.path.join(
            trace_dir, f"{args.workload}-seed{args.seed}.jsonl")]
    sys.stdout.flush()
    return subprocess.run(command, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
