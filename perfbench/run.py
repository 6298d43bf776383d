#!/usr/bin/env python3
"""Build the etextile benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 25 --trace 0

Builds perfbench/etxbench.exe and the etx daemon with dune into
.bench_build/, runs the workload in its own process group (so a timeout
or a crash can kill every daemon it started), and prints the
benchmark's result object as the last line of standard output.  Exits
non-zero without a result when the checkout cannot be built, the run
fails or times out, or an output was wrong.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

WORKLOADS = ("paper-sweep", "cluster-hot", "cluster-churn")
BUILD_DIR = ".bench_build"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
REQUIRED = ("dune-project", "lib", "bin", "perfbench/dune", "perfbench/reference/paper_sweep.txt")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    return 2


def kill_group(pgid):
    """SIGKILL every process left in the group and wait until none is."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def declared_metrics(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        return fail("--seed must be >= 0 and --seconds >= 1")
    missing = [p for p in REQUIRED if not os.path.exists(p)]
    if missing:
        return fail("not at the root of an etextile checkout (missing %s)" % ", ".join(missing))

    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "./perfbench/etxbench.exe", "./bin/etx_main.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        return fail("build failed")

    exe = os.path.join(BUILD_DIR, "default", "perfbench", "etxbench.exe")
    etx = os.path.abspath(os.path.join(BUILD_DIR, "default", "bin", "etx_main.exe"))
    proc = subprocess.Popen(
        [exe, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace), "--etx", etx],
        stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        kill_group(proc.pid)
        proc.wait()
        return fail("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    finally:
        kill_group(proc.pid)

    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(out)
        return fail("%s failed (exit %d)" % (args.workload, proc.returncode))
    result = json.loads(lines[-1])
    if set(result["metrics"]) != declared_metrics(args.trace):
        return fail("reported metrics differ from those BENCHMARK.json declares")
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
