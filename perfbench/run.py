#!/usr/bin/env python3
"""Build the layered benchmark from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload gw-dscs --seed 1 --seconds 10 --trace 0

Every argument is passed to the benchmark binary (see perfbench/README.md).
The Go build cache, module cache and binary live under .bench_build/ in the
current directory, so nothing is written outside it.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    src = os.path.dirname(os.path.abspath(__file__))
    out = os.path.join(root, ".bench_build", "perfbench")
    gohome = os.path.join(out, "go")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(gohome, "cache"),
        GOMODCACHE=os.path.join(gohome, "mod"),
        GOPATH=gohome,
        XDG_CONFIG_HOME=os.path.join(gohome, "config"),
        GOFLAGS="-mod=mod",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    binary = os.path.join(out, "perfbench")
    build = subprocess.run(
        ["go", "build", "-buildvcs=false", "-o", binary, "."],
        cwd=src, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    # Replace this process with the benchmark, so signals reach it directly
    # and no child outlives the wrapper.
    os.execv(binary, [binary, "--commit", commit(root)] + sys.argv[1:])


def commit(root):
    """The checkout's git commit, or "unknown" outside a git work tree."""
    if not os.path.exists(os.path.join(root, ".git")):
        return "unknown"
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"], cwd=root,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return rev.stdout.strip() if rev.returncode == 0 else "unknown"


if __name__ == "__main__":
    sys.exit(main())
