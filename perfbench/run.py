#!/usr/bin/env python3
"""Builds the benchmark and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <campaign|serve_hot|serve_churn> \
        --seed <n> --seconds <s> --trace <0|1>

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) that
depends on the workspace crates by path. This script builds both of its
binaries in release mode into $CARGO_TARGET_DIR (default .bench_build),
then runs `perfbench` for --trace 0 or `perfbench-traced` (the build with
the counting allocator) for --trace 1, passing every argument through.
The last line the binary prints is the JSON result. A failed build exits
non-zero without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    args = sys.argv[1:]
    traced = "1" in [args[i + 1] for i, a in enumerate(args[:-1]) if a == "--trace"]
    target = os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml"), "--bins"],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release",
                          "perfbench-traced" if traced else "perfbench")
    sys.stdout.flush()
    return subprocess.run([binary] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
