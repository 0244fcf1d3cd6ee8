#!/usr/bin/env python3
"""Build and run the NetAlytics whole-pipeline benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload mix6 --seed 1 --seconds 10 --trace 0

The Go program in this directory is its own module; it is built from the
repository's sources into .bench_build/, with the Go build cache kept there
too, so the benchmark reads and writes nothing outside the checkout. Its
standard output is passed through: the last line is the JSON result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(BUILD, "perfbench")
BINARY = os.path.join(OUT, "perfbench")

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
    )
    return env


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["mix6", "topk", "fanout32"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        sys.exit("perfbench: no NetAlytics sources next to %s (go.mod missing)" % HERE)
    env = go_env()
    for d in (env["GOCACHE"], env["GOTMPDIR"], env["XDG_CONFIG_HOME"], OUT):
        os.makedirs(d, exist_ok=True)
    try:
        build = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=env,
                               timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        sys.exit("perfbench: build failed: %s" % err)
    if build.returncode != 0:
        sys.exit("perfbench: build failed with exit code %d" % build.returncode)

    cmd = [BINARY, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace), "-out", OUT]
    try:
        # The traced run calls `go tool pprof`, with the same environment.
        run = subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %ds" % RUN_TIMEOUT_S)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
