#!/usr/bin/env python3
"""Build the galatex CLI and the benchmark program, then run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds N --trace 0|1

The benchmark program (perfbench/main.exe) prints its metrics; the last line of
standard output is one JSON object.  Exits non-zero, without a result,
when the build fails.
"""

import os
import subprocess
import sys

TARGETS = ["./bin/galatex_cli.exe", "./perfbench/main.exe"]


def main():
    root = os.getcwd()
    try:
        build = subprocess.run(
            ["dune", "build", "--root", root, "--display", "quiet"] + TARGETS,
            stdout=sys.stderr,
            stderr=sys.stderr,
            timeout=840,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    bench = os.path.join(root, "_build", "default", "perfbench", "main.exe")
    galatex = os.path.join("_build", "default", "bin", "galatex_cli.exe")
    sys.stdout.flush()
    os.execv(bench, [bench, "--galatex", galatex] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
