#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: it builds perfbench/main.exe with dune
(build output goes to stderr), then runs it.  The last line of stdout is the
JSON result.  Without a buildable repository around it, it exits non-zero
and prints no result.
"""

import argparse
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.exit("perfbench: no dune-project and lib/ here; run from the "
                 "root of a repository checkout")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe"],
        stdout=sys.stderr)
    if build.returncode != 0:
        sys.exit("perfbench: build failed")
    try:
        run = subprocess.run(
            [EXE, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {TIMEOUT_S} s")
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
