#!/usr/bin/env python3
"""Builds and runs the paper-workload benchmark.

    python3 paperbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds the
benchmark and the repository's libraries under .bench_build/ (later runs
only check that the build is up to date), then runs the benchmark's
self-tests and the benchmark itself. The benchmark's last stdout line is
the result object; build and self-test output goes to stderr.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "paperbench")
OUT = os.path.join(ROOT, ".bench_build", "out")
JOBS = str(max(1, min(4, os.cpu_count() or 1)))


def step(cmd):
    """Runs a build or test step with its output on stderr; exits on failure."""
    code = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode
    if code != 0:
        sys.stderr.write("run.py: %s failed with code %d\n" % (cmd[0], code))
        sys.exit(code if code > 0 else 1)


def main():
    inherited = sorted(k for k in os.environ if k.startswith("HS_"))
    if inherited:
        sys.stderr.write("run.py: refusing to run with inherited HS_* "
                         "variables: %s\n" % " ".join(inherited))
        return 2
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        step(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    step(["cmake", "--build", BUILD, "-j", JOBS])
    step([os.path.join(BUILD, "paperbench_selftest"), "--gtest_brief=1"])
    return subprocess.run([os.path.join(BUILD, "paperbench")] + sys.argv[1:] +
                          ["--out", OUT]).returncode


if __name__ == "__main__":
    sys.exit(main())
