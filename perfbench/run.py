#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload dice-l1 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Builds perfbench/bench.exe with dune,
runs it, and prints a report line (sample counts, the paper's ratios with
their bases, GC deltas per phase) and then, as the last line, one JSON
object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
"""

import argparse
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import metrics  # noqa: E402

WORKLOADS = ("dice-l1", "airdrop-storm", "transfer-import")
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the root of a Forerunner checkout", file=sys.stderr)
        return 2
    # subprocess.run kills and reaps the child when its timeout expires
    try:
        build = subprocess.run(["dune", "build", "--root", ".", "./perfbench/bench.exe"],
                               stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed (exit %d)" % build.returncode, file=sys.stderr)
        return 2
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        bench = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: %s timed out" % args.workload, file=sys.stderr)
        return 3
    if bench.returncode != 0:
        print("perfbench: bench.exe exited %d" % bench.returncode, file=sys.stderr)
        return 3
    doc = json.loads(bench.stdout.decode().strip().splitlines()[-1])
    print(json.dumps({"report": metrics.report(doc)}))
    print(json.dumps(metrics.result(doc)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
