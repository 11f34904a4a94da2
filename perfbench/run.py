#!/usr/bin/env python3
"""Build the benchmark from source, then run it.

Run from the repository root; every argument is passed to the benchmark:

    python3 perfbench/run.py --workload plan-large --seed 1 --seconds 15 --trace 0

Build output goes to standard error, so the last line of standard output is
the benchmark's result object. Builds land in `$CARGO_TARGET_DIR`
(default `.bench_build`).
"""
import os
import subprocess
import sys


def main() -> int:
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    manifest = os.path.join("perfbench", "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(env["CARGO_TARGET_DIR"], "release", "qpseeker-perfbench")
    return subprocess.run([exe, *sys.argv[1:]], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
