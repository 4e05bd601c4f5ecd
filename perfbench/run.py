#!/usr/bin/env python3
"""Build and run the v6brick benchmark.

    python3 perfbench/run.py --workload paper|fleet|wanscan \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds the benchmark package in
perfbench/ and the v6brickd daemon from the workspace, in release mode,
into $CARGO_TARGET_DIR (default .bench_build), then runs one workload
and passes its output through: progress on stderr, and the JSON result
as the last line of stdout. Exits non-zero, without a result, when the
build or the run fails. See perfbench/NOTES.md.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(ROOT, "Cargo.toml"),
         "-p", "v6brick-ingest", "--bin", "v6brickd"],
    ]
    for cmd in steps:
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        sys.exit("perfbench: no workspace next to perfbench/; run from a full checkout")
    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build(target_dir)
    release = os.path.join(target_dir, "release")
    cmd = [os.path.join(release, "perfbench"), *sys.argv[1:],
           "--v6brickd", os.path.join(release, "v6brickd"),
           "--out-dir", os.path.abspath(".bench_run")]
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
