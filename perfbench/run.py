#!/usr/bin/env python3
"""Builds the benchmark and the shipped `platform_serve`, then runs one
benchmark workload.

Run from the repository root:

    python3 perfbench/run.py --workload light|heavy --seed N --seconds S --trace 0|1

Build output goes to stderr; the last line of stdout is the result object.
Builds land in $CARGO_TARGET_DIR (default `.bench_build`).
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build(args):
    """Runs one cargo build with its output on stderr; exits on failure."""
    done = subprocess.run(
        ["cargo", "build", "--release", "--quiet", "--offline", *args],
        cwd=ROOT,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if done.returncode != 0:
        sys.exit(f"perfbench: cargo build {' '.join(args)} failed")


def main():
    for needed in ("Cargo.toml", "crates"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            sys.exit(f"perfbench: {needed} is missing; run from a full checkout")
    target = os.path.join(ROOT, os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    build(["-p", "vcs-shard", "--bin", "platform_serve"])
    build(["--manifest-path", os.path.join("perfbench", "Cargo.toml")])
    release = os.path.join(target, "release")
    bench = subprocess.run(
        [
            os.path.join(release, "perfbench"),
            *sys.argv[1:],
            "--server",
            os.path.join(release, "platform_serve"),
        ],
        cwd=ROOT,
    )
    sys.exit(bench.returncode)


if __name__ == "__main__":
    main()
