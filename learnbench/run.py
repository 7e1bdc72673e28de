#!/usr/bin/env python3
"""Builds the learner benchmark from source and runs one workload.

    python3 learnbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. It builds two release binaries into
$CARGO_TARGET_DIR (default: .bench_build at the repository root): the
benchmark package in this directory, and the `cirlearn` CLI, whose
`blackbox` subcommand serves the blackbox_pipe workload. Build output
goes to stderr; the benchmark's own stdout passes through, so its last
line is the result JSON. The exit code is the benchmark's, or the
build's when a build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(target, manifest, *extra):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", manifest, *extra]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.stderr.write(f"run.py: build failed: {' '.join(cmd)}\n")
        sys.exit(done.returncode or 1)


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    build(target, os.path.join(HERE, "Cargo.toml"))
    build(target, os.path.join(ROOT, "Cargo.toml"),
          "-p", "cirlearn-cli", "--bin", "cirlearn")
    bench = os.path.join(target, "release", "learnbench")
    cirlearn = os.path.join(target, "release", "cirlearn")
    cmd = [bench, *sys.argv[1:], "--cirlearn", cirlearn]
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
