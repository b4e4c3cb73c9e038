#!/usr/bin/env python3
"""Builds the release `apsp` CLI and the benchmark, then runs the benchmark.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload mesh2d-native --seed 1 --seconds 25 --trace 0

Every argument is passed on to the benchmark program (see README.md next
to this file). Cargo's output goes to standard error, so the benchmark's
last line of standard output is its result object. Build outputs land in
$CARGO_TARGET_DIR (default `.bench_build`), scratch files under its
`perfbench/` directory.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def main():
    for needed in ("Cargo.toml", "crates", os.path.join("src", "bin", "apsp.rs")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} is missing: run from a full checkout of the repository")
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "apsp"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in builds:
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")
    release = os.path.join(target, "release")
    bench = [
        os.path.join(release, "apsp-perfbench"),
        *sys.argv[1:],
        "--apsp", os.path.join(release, "apsp"),
        "--work-dir", os.path.join(target, "perfbench"),
    ]
    sys.exit(subprocess.run(bench, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
