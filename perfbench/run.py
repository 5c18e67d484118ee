#!/usr/bin/env python3
"""Build and run the layered pipeline benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload paper-grid|fb-search|synth-short \
        --seed N --seconds S --trace 0|1

Builds perfbench/main.exe with dune inside the checkout (the dune cache is
disabled so nothing is written outside it), then runs it with the same
arguments.  The build log goes to stderr; the benchmark's metric lines and
its closing JSON summary go to stdout.  The exit code is the benchmark's:
0 when every output check passed, non-zero otherwise.  Without the
repository's sources next to perfbench/ it exits 2 before building.
"""

import os
import subprocess
import sys


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for need in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(root, need)):
            print(f"perfbench: {need} is missing from {root}; "
                  "run from a full checkout of the repository",
                  file=sys.stderr)
            return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", root, "--display", "quiet",
         "./perfbench/main.exe"],
        cwd=root, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    exe = os.path.join(root, "_build", "default", "perfbench", "main.exe")
    return subprocess.run([exe] + sys.argv[1:], cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
