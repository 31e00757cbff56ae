#!/usr/bin/env python3
"""Build the benchmark from source with dune, then run it.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Build output goes to the checkout's own _build directory, with dune's
shared cache disabled so nothing is written outside the checkout.  The
build log goes to stderr; stdout carries only the benchmark's output,
whose last line is the JSON result.  Exits non-zero, without a result,
if the build fails.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", root, "--cache=disabled", "--display=quiet",
         "./perfbench/main.exe"],
        cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    bench = subprocess.run([os.path.join(root, EXE)] + sys.argv[1:], cwd=root)
    return bench.returncode


if __name__ == "__main__":
    sys.exit(main())
