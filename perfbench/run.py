#!/usr/bin/env python3
"""Builds the engine and the perfbench binary from source, then runs one workload.

Usage (from the repository root):
    python3 perfbench/run.py --workload ingest|query|mixed --seed N --seconds S --trace 0|1

The build goes to .bench_build/cmake (configured once, then incremental) and
its log to stderr, so the last line on stdout is the benchmark's JSON result.
Exits nonzero when the build fails, when an output check fails, or when the
engine sources are missing.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "cmake")


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs])
    for step in steps:
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return subprocess.run([os.path.join(BUILD, "perfbench")] + sys.argv[1:],
                          cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
