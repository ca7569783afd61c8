#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics over several seeds.

    python3 perfbench/spread.py --workload NAME [--seeds 1-10]

Run from the root of a checkout.  Runs perfbench/run.py untraced once per
seed with BENCHMARK.json's run_seconds, then prints per end-to-end metric
the median and the quartile spread (Q3 - Q1) / median, next to the metric's
bound and a third of it.  Exits 1 when a run fails or a spread exceeds its
bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for seed in seeds(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: incorrect result")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(
            f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()),
            flush=True)
    worst = 0
    print(f"{'metric':34} {'median':>14} {'spread':>8} {'bound':>6} {'bound/3':>8}")
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None:
            if spread > bound:
                flag, worst = "OVER BOUND", 1
            elif spread > bound / 3:
                flag = "over bound/3"
        print(f"{name:34} {med:14.6g} {spread:8.4f} "
              f"{bound if bound is not None else '-':>6} "
              f"{bound / 3 if bound is not None else '-':>8.4} {flag}")
    sys.exit(worst)


if __name__ == "__main__":
    main()
