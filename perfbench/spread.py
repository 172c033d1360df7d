#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the root of a camj checkout:

    python3 perfbench/spread.py [--runs 10] [--trace 0|1]

For every workload in BENCHMARK.json it runs `python3 perfbench/run.py`
for `run_seconds` once per seed (seeds 1 to --runs), in sequence, and prints per metric the median, the quartile spread
(Q3 - Q1 of `statistics.quantiles(values, n=4)`) as a share of the
median, and the metric's bound from BENCHMARK.json. A spread at or
above a third of its bound is flagged. It also checks BENCHMARK.json's shape (its keys,
name and unit patterns, 2 to 8 workloads, bounds in (0, 0.25]) and that
every run exited 0 with correct outputs. Exits 1 if any check fails.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_spec(spec):
    """Problems with BENCHMARK.json's shape, as a list of strings."""
    problems = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        problems.append(f"keys {sorted(spec)} != {sorted(keys)}")
    if not 2 <= len(spec["workloads"]) <= 8:
        problems.append("2 to 8 workloads")
    if not 1 <= spec["run_seconds"] <= 60:
        problems.append("run_seconds out of 1..60")
    names = set()
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            problems.append(f"workload {w.get('name')}: bad keys or why")
    for group, extra in (("end_to_end", {"bound"}), ("per_layer", set())):
        for m in spec[group]:
            if set(m) != {"name", "unit", "better"} | extra:
                problems.append(f"{m.get('name')}: keys {sorted(m)}")
            if not NAME.match(m["name"]) or m["name"] in names:
                problems.append(f"{m['name']}: bad or repeated name")
            names.add(m["name"])
            if not UNIT.match(m["unit"]) or m["better"] not in ("lower", "higher"):
                problems.append(f"{m['name']}: bad unit or better")
            if extra and not 0 < m["bound"] <= 0.25:
                problems.append(f"{m['name']}: bound out of (0, 0.25]")
    if len(json.dumps(spec)) > 64 * 1024:
        problems.append("BENCHMARK.json over 64 KiB")
    return problems


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.time()
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    wall = time.time() - start
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
    return done.returncode, result, wall, done.stderr


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = check_spec(spec)
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    group = spec["per_layer" if args.trace else "end_to_end"]
    wanted = [m["name"] for m in group]
    units = {m["name"]: m["unit"] for m in group}

    for workload in workloads:
        values = {name: [] for name in wanted}
        for seed in range(1, args.runs + 1):
            code, result, wall, stderr = run_once(workload, seed, seconds, args.trace)
            if result is None:
                failures.append(f"{workload} seed {seed}: exit {code}: {stderr[-500:]}")
                continue
            if not result["correct"]:
                failures.append(f"{workload} seed {seed}: outputs not correct")
            if set(result["metrics"]) != set(wanted):
                failures.append(f"{workload} seed {seed}: metric names differ")
            for name in wanted:
                if name in result["metrics"]:
                    values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: {wall:.1f} s, "
                  f"{result['attempted']} ops, {result['failed']} failed", flush=True)
        print(f"\n== {workload}: {args.runs} runs of {seconds} s ==")
        print(f"{'metric':<30} {'median':>16} {'unit':<12} {'spread':>8} {'bound':>7}")
        for name in wanted:
            v = values[name]
            if not v:
                continue
            med = statistics.median(v)
            if len(v) < 2:
                print(f"{name:<30} {med:>16.6f} {units[name]:<12}")
                continue
            q1, _, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread >= bound / 3:
                flag = "  <-- over a third of its bound"
                failures.append(f"{workload} {name}: spread {spread:.4f}, bound {bound}")
            if med == 0 and bound is not None:
                flag = "  <-- zero"
                failures.append(f"{workload} {name}: median is 0")
            shown = "" if bound is None else f"{bound:7.3f}"
            print(f"{name:<30} {med:>16.6f} {units[name]:<12} {spread:>8.4f} {shown}{flag}")
        print(flush=True)

    for f in failures:
        print(f"FAILED: {f}")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
