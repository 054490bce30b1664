#!/usr/bin/env python3
"""Builds amber_bench from this checkout, then runs it.

    python3 bench/amber_bench/run.py --workload NAME --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. The build goes to build-amber_bench/
(configured once, rebuilt incrementally on every call); result files and
Chrome traces go to build-amber_bench/out/. All arguments are passed to
the amber_bench binary, whose last line of output is the result object.
Exits non-zero, printing no result, when the build or the run fails.
"""

import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, "build-amber_bench")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the benchmark; False on failure."""
    os.makedirs(BUILD, exist_ok=True)
    # Concurrent calls share one build directory: build one at a time.
    with open(os.path.join(BUILD, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j4",
                      "--target", "amber_bench"])
        for cmd in steps:
            # Build chatter goes to stderr: stdout carries only results.
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                return False
    return True


def main(argv):
    if not build():
        print("amber_bench: build failed", file=sys.stderr)
        return 1
    out = os.path.join(BUILD, "out")
    cmd = [os.path.join(BUILD, "amber_bench"), *argv, "--out", out]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"amber_bench: no result within {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
