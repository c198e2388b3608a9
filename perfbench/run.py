#!/usr/bin/env python3
"""Build the serving binaries and the load generator, then run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload latchd-clean --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Cargo builds into $CARGO_TARGET_DIR (default: .bench_build); runtime state
and span files go to .bench_work. Build output goes to stderr; the load
generator's stdout, whose last line is the JSON result, is passed through.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    for need in ("Cargo.toml", "crates/serve/Cargo.toml", "crates/router/Cargo.toml"):
        if not os.path.isfile(os.path.join(root, need)):
            print(f"perfbench: {need} not found; run from the repository root",
                  file=sys.stderr)
            return 2
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--quiet",
         "-p", "latch-serve", "--bin", "latchd",
         "-p", "latch-router", "--bin", "latch-routerd"],
        ["cargo", "build", "--release", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print(f"perfbench: build failed: {' '.join(cmd)}", file=sys.stderr)
            return done.returncode or 1
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "latch-perfbench"),
           "--bin-dir", release,
           "--work-dir", os.path.join(root, ".bench_work"),
           *sys.argv[1:]]
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
