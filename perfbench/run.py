#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cluster --seed 1 --seconds 18 --trace 0

The script builds the benchmark program (the Go module in this directory,
which compiles the repository's packages from source) into .bench_build/,
then runs it with the given arguments and passes its output and exit code
through. Everything it writes stays under .bench_build/ in the checkout.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        GOMODCACHE=os.path.join(BUILD, "gomodcache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOENV="off",
        GOFLAGS="",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
    )
    return env


def build():
    env = go_env()
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    proc = subprocess.run(
        ["go", "build", "-o", BINARY, "."],
        cwd=HERE,
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    return proc.returncode


def main():
    code = build()
    if code != 0:
        print("perfbench: build failed", file=sys.stderr)
        return code or 1
    proc = subprocess.run(
        [BINARY, "--out", os.path.join(BUILD, "out"), "--src", ROOT] + sys.argv[1:],
        cwd=ROOT,
        env=go_env(),
    )
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
