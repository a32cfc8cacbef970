#!/usr/bin/env python3
"""Build the benchmark from source, then run it with the given flags.

    python3 perfbench/run.py --workload closed_loop --seed 1 --seconds 10 --trace 0

The binary prints the metrics and ends with one JSON line (see
README.md). Build output goes to stderr; the build lands in
$CARGO_TARGET_DIR, or perfbench/target when that is unset.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def commit():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=HERE,
            capture_output=True,
            text=True,
            check=True,
        )
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    manifest = os.path.join(HERE, "Cargo.toml")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(os.path.abspath(target), "release", "perfbench")
    return subprocess.run([exe, *sys.argv[1:], "--commit", commit()]).returncode


if __name__ == "__main__":
    sys.exit(main())
