#!/usr/bin/env python3
"""Builds the benchmark from this checkout and runs one measurement.

    python3 e2ebench/run.py --workload road-cold --seed 1 --seconds 10 --trace 0

Run from the repository root.  The build goes to `$CARGO_TARGET_DIR`
(default `.bench_build`), generated inputs and traces to `.bench_data`.
The last line of standard output is the JSON result; see README.md.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        return build.returncode
    exe = os.path.join(target, "release", "ftbfs-e2ebench")
    return subprocess.run([exe, *sys.argv[1:]]).returncode


if __name__ == "__main__":
    sys.exit(main())
