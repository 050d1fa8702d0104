#!/usr/bin/env python3
"""Build `mrmc` and the `perf` benchmark from source, then run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Both binaries are built in release mode into $CARGO_TARGET_DIR (default
`.bench_build`); `perf` drives the real `mrmc serve` from that build and
writes its scratch files and traces under `<target dir>/perfbench/`. The
last line of standard output is the run's JSON result.
"""

import os
import subprocess
import sys


def main() -> int:
    if not (os.path.isfile("Cargo.toml") and os.path.isdir("crates")):
        print("run.py: run from the repository root (no Cargo.toml and crates/ here)", file=sys.stderr)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "-p", "mrmc-server", "--bin", "mrmc"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
    ]
    for cmd in builds:
        built = subprocess.run(cmd, env=env, stdout=sys.stderr)
        if built.returncode != 0:
            return built.returncode
    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "perf"),
        *sys.argv[1:],
        "--mrmc",
        os.path.join(release, "mrmc"),
        "--out-dir",
        os.path.join(target, "perfbench"),
    ]
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
