#!/usr/bin/env python3
"""Smoke test of the repository benchmark.

    python3 perfbench/smoke_test.py

Run from the root of a checkout.  Runs every workload of BENCHMARK.json for
one second, untraced and traced, and checks that:
  - the run exits 0 and its last line is the JSON result, with no failures;
  - the result carries exactly the end_to_end (untraced) or per_layer
    (traced) metrics of BENCHMARK.json, each with its unit;
  - every one of them is also printed by name, with its unit and a sample
    count, and error_ratio is printed as 0;
  - the traced run wrote its span file.
Last, it checks that the benchmark fails without printing a result in a
directory holding only BENCHMARK.json and the benchmark's own files.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

SECONDS = 1


def fail(msg):
    sys.exit(f"smoke_test: FAIL: {msg}")


def run(bench, workload, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", "1", "--seconds", str(SECONDS),
        "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    tag = f"{workload} trace={trace}"
    if out.returncode != 0:
        fail(f"{tag}: exit {out.returncode}\n{out.stdout}\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{tag}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0:
        fail(f"{tag}: incorrect result")
    if result["attempted"] < 1:
        fail(f"{tag}: nothing attempted")
    wanted = bench["per_layer" if trace else "end_to_end"]
    if set(result["metrics"]) != {m["name"] for m in wanted}:
        fail(f"{tag}: metrics {sorted(result['metrics'])}")
    printed = {}
    for line in lines[:-1]:
        m = re.match(r"metric (\S+) +(\S+) +(\S+) +n=(\d+)$", line)
        if m:
            printed[m.group(1)] = (m.group(2), m.group(3))
    for m in wanted:
        value = result["metrics"][m["name"]]
        if value["unit"] != m["unit"]:
            fail(f"{tag}: {m['name']} unit {value['unit']} != {m['unit']}")
        if not isinstance(value["value"], (int, float)):
            fail(f"{tag}: {m['name']} value is not a number")
        if printed.get(m["name"], (None, None))[1] != m["unit"]:
            fail(f"{tag}: {m['name']} not printed with unit {m['unit']}")
    if trace == 0 and printed.get("error_ratio") != ("0.000000", "ratio"):
        fail(f"{tag}: error_ratio printed as {printed.get('error_ratio')}")
    if trace == 1:
        spans = os.path.join("perfbench", "traces", f"{workload}-seed1.jsonl")
        if not os.path.isfile(spans):
            fail(f"{tag}: no span file {spans}")
    print(f"ok {tag}: {len(wanted)} metrics, "
          f"{result['attempted']} attempted", flush=True)


def bare_checkout_fails(bench):
    with tempfile.TemporaryDirectory() as d:
        shutil.copy("BENCHMARK.json", d)
        for path in bench["paths"]:
            shutil.copytree(path, os.path.join(d, path),
                            ignore=shutil.ignore_patterns("traces"))
        out = subprocess.run(
            bench["command"] + ["--workload", bench["workloads"][0]["name"],
                                "--seed", "1", "--seconds", "1",
                                "--trace", "0"],
            cwd=d, capture_output=True, text=True, timeout=180)
        if out.returncode == 0 or out.stdout.strip():
            fail("a bare directory did not fail cleanly")
    print("ok bare directory: fails without a result", flush=True)


def main():
    bench = json.load(open("BENCHMARK.json"))
    for w in bench["workloads"]:
        for trace in (0, 1):
            run(bench, w["name"], trace)
    bare_checkout_fails(bench)
    print("smoke_test: all ok")


if __name__ == "__main__":
    main()
