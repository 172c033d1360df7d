#!/usr/bin/env python3
"""Build camj and the perfbench harness from source, then run one workload.

Usage, from the root of a camj checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: design_space, functional_frames, serve_mix, cli_oneshot.
Build output goes to stderr; the harness prints a metric table and, as
the last line of stdout, one JSON object. Builds land in
$CARGO_TARGET_DIR (default: .bench_build in the checkout); traced runs
write their spans to <target dir>/perfbench/.

Any further flags (such as --inject-build-point-us N, used by
perfbench/teeth.py) are passed through to the harness.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build(target, args):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"run.py: {' '.join(cmd)} failed with {done.returncode}")


def main():
    for needed in ("Cargo.toml", "crates", "descriptions"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            sys.exit(f"run.py: {needed} is missing; run this from a camj checkout")
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build(target, ["--bin", "camj"])
    build(target, ["--manifest-path", os.path.join("perfbench", "Cargo.toml")])
    harness = os.path.join(target, "release", "perfbench")
    argv = [harness] + sys.argv[1:] + [
        "--camj", os.path.join(target, "release", "camj"),
        "--out-dir", os.path.join(target, "perfbench"),
    ]
    sys.stdout.flush()
    os.chdir(ROOT)
    os.execv(harness, argv)


if __name__ == "__main__":
    main()
