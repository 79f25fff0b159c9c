#!/usr/bin/env python3
"""Build the perfbench binary from source and run it.

Run from the repository root, for example:

    python3 perfbench/run.py --workload paper-eval --seed 1 --seconds 10 --trace 0

The Go build cache, temporary files and the binary stay under
.bench_build/perfbench in the current directory, so nothing is written
outside it. Every argument is passed through to the binary, whose exit
status becomes this script's.
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    out = os.path.join(root, ".bench_build", "perfbench")
    for sub in ("gocache", "gotmp", "gopath", "config"):
        os.makedirs(os.path.join(out, sub), exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(out, "gocache"),
        GOTMPDIR=os.path.join(out, "gotmp"),
        GOPATH=os.path.join(out, "gopath"),
        # The go command keeps its env file and telemetry under the user
        # config directory; point that inside the checkout too.
        XDG_CONFIG_HOME=os.path.join(out, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-mod=readonly",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    binary = os.path.join(out, "perfbench")
    build = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=os.path.join(root, "perfbench"),
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit(build.returncode)
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    main()
