#!/usr/bin/env python3
"""Show that the benchmark has teeth.

Usage, from the root of a camj checkout:

    python3 perfbench/teeth.py

Adds a known busy-wait of DELAY_US to the benchmark's own `build_point`
closure (`--inject-build-point-us`), which only the design_space work calls,
and checks the predictions the notes make:

* design_space, traced: `explore.build_point_us` rises by at least
  0.8x the injected delay;
* design_space: `explore_points_per_s` and `estimate_per_s` fall by more
  than their bounds in BENCHMARK.json, so a regression of this size is
  caught;
* functional_frames: its own metric, `frame_mpix_per_s`, moves by less
  than its bound (that workload's frames never call the closure).

Baseline and delayed runs of SECONDS each alternate, for SEEDS seeds.
Exits 1 if any prediction fails.
"""

import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SECONDS = 6
DELAY_US = 500
SEEDS = 3


def run(workload, seed, seconds, trace, delay_us):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--inject-build-point-us", str(delay_us)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"teeth.py: {' '.join(cmd)} reported incorrect outputs")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}

    cases = [
        ("design_space", 1, "explore.build_point_us"),
        ("design_space", 0, "explore_points_per_s"),
        ("design_space", 0, "estimate_per_s"),
        ("functional_frames", 0, "frame_mpix_per_s"),
    ]
    runs = [(w, t) for w, t in dict.fromkeys((w, t) for w, t, _ in cases)]
    values = {(w, t, d): [] for w, t in runs for d in (0, DELAY_US)}
    for seed in range(1, SEEDS + 1):
        for w, t in runs:
            for d in (0, DELAY_US):
                values[(w, t, d)].append(run(w, seed, SECONDS, t, d))
                print(f"seed {seed} {w} trace {t} delay {d} us: done", flush=True)

    def med(w, t, d, metric):
        return statistics.median(v[metric] for v in values[(w, t, d)])

    failures = []
    print(f"\n{'workload':<18} {'metric':<24} {'base':>12} {'delayed':>12} {'change':>8}")
    for w, t, metric in cases:
        base, slow = med(w, t, 0, metric), med(w, t, DELAY_US, metric)
        change = slow / base - 1
        print(f"{w:<18} {metric:<24} {base:>12.3f} {slow:>12.3f} {change:>+8.1%}")
        if metric == "explore.build_point_us":
            if slow - base < 0.8 * DELAY_US:
                failures.append(f"{metric} rose by {slow - base:.1f} us only")
        elif w == "design_space":
            if -change <= bounds[metric]:
                failures.append(f"{metric} fell by {-change:.1%}, not beyond its bound")
        elif abs(change) >= bounds[metric]:
            failures.append(f"{w} {metric} moved by {change:+.1%}")
    for f in failures:
        print(f"FAILED: {f}")
    print("teeth: " + ("FAILED" if failures else "ok"))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
