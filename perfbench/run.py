#!/usr/bin/env python3
"""Build the benchmark driver from this checkout and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The driver (perfbench/perfbench.ml) is built with dune into .bench_build,
then run with the same arguments.  Its last stdout line is the result
object; this script checks its shape and prints it again as the last line.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("scale-csr", "solve-cold", "serve-warm", "asynch-alpha")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
DRIVER = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
RUN_TIMEOUT_S = 170


def die(msg):
    sys.exit("perfbench: " + msg)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()
    if args.seconds <= 0:
        die("--seconds must be positive")

    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, need)):
            die(f"{need} not found under {ROOT}: run from a full checkout")

    # the shared dune cache lives outside the checkout; keep it off
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR,
         "--profile", "release", "--display", "quiet",
         "./perfbench/perfbench.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        die(f"dune build failed with code {build.returncode}")

    try:
        run = subprocess.run(
            [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"driver did not finish within {RUN_TIMEOUT_S} s")
    if run.returncode != 0:
        die(f"driver exited with code {run.returncode}")

    lines = run.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        die("driver printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        die(f"unexpected result keys: {sorted(result)}")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
