#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. It builds perfbench/main.exe with dune
(build output goes to stderr), then runs it; the benchmark's last line
of standard output is its JSON result. The exit code is the benchmark's:
0 when every output check passed.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("rx_hw_min64", "rx_shim_kvs", "control_catalog", "live_swap_e1000")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    return 2


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = ap.parse_args()
    if a.seconds < 1:
        return fail("--seconds must be >= 1")
    if not os.path.isfile("dune-project"):
        return fail("no dune-project here: run from the repository root")
    try:
        built = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/main.exe"],
            stdout=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        return fail("build failed: %s" % e)
    if built.returncode != 0:
        return fail("build failed (dune exit %d)" % built.returncode)
    args = [EXE, "--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", str(a.trace)]
    sys.stdout.flush()
    try:
        return subprocess.run(args, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return fail("run exceeded %d s" % RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
