#!/usr/bin/env python3
"""Builds and runs the PAWS serving benchmark.

Run from the repository root:

  python3 perfbench/run.py --workload serve_cached --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (which pulls in the
repository's `paws` library) into .bench_build/ with CMake in Release mode;
later calls only rebuild what changed. Build output goes to stderr, so the
benchmark's JSON result stays the last line of stdout. Workloads, metrics
and bounds are listed in BENCHMARK.json.
"""
import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
TARGETS = ["paws_perfbench", "perfbench_report_test"]
# A run measures --seconds plus set-up and checking; stop a hung one well
# inside the three-minute limit.
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        sys.exit("perfbench: no PAWS sources beside perfbench/; nothing to build")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", BUILD, "-j", jobs, "--target"] + TARGETS,
        stdout=sys.stderr, check=True)


def run(argv):
    try:
        return subprocess.run(argv, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["serve_cached", "tiles_cold"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run the benchmark's own tests instead")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as err:
        sys.exit("perfbench: build failed: %s" % err)
    if args.self_test:
        return run([os.path.join(BUILD, "perfbench_report_test")])
    return run([os.path.join(BUILD, "paws_perfbench"),
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)])


if __name__ == "__main__":
    sys.exit(main())
