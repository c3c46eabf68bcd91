#!/usr/bin/env python3
"""Build the SpecCC benchmark from source and run one workload.

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The benchmark binary is built with
dune into the checkout's _build directory (dune's shared cache is
disabled, so nothing is written outside the checkout); all arguments
are passed through to it.  Its last line of standard output is the
result object; its exit code is this script's.  See README.md.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGET = os.path.join("perfbench", "main", "perfbench.exe")
# One run must end within 180 s; the benchmark itself measures for
# --seconds and then drains, so this only stops a wedged run.
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 840


def main():
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./" + TARGET],
            cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        print("perfbench: build failed: %s" % err, file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(ROOT, "_build", "default", TARGET)
    child = subprocess.Popen([binary] + sys.argv[1:], cwd=ROOT, env=env)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
