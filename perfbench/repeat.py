#!/usr/bin/env python3
"""Run one workload k times with different seeds and report how steady it is.

Usage (from the root of a checkout):

    python3 perfbench/repeat.py --workload serve-cold --runs 10 [--first-seed 1]

For every end-to-end metric it prints the median of the k run values, the
first and third quartiles (statistics.quantiles(values, n=4)), the spread
(q3 - q1) / median and that metric's bound from BENCHMARK.json. A spread
under a third of the bound is marked "steady". The share of failed
operations of each run is printed too: it must be the same in every run.
So is the share of CPU time the host stole during each run, which explains
most slow outliers on a shared machine.
Exits 1 when a run fails or reports correct: false.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: run_seconds of BENCHMARK.json)")
    args = parser.parse_args()

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    values = {m["name"]: [] for m in spec["end_to_end"]}
    failed_shares = []
    for i in range(args.runs):
        seed = args.first_seed + i
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print("seed %d: run failed (exit %d)" % (seed, proc.returncode))
            return 1
        result = json.loads(lines[-1])
        if not result["correct"]:
            print("seed %d: correct is false" % seed)
            return 1
        failed_shares.append(result["failed"] / result["attempted"])
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        steal = [l.split()[3] for l in lines if l.startswith("knl-perfbench: host steal")]
        print("seed %d: %s host_steal=%s" % (seed, " ".join(
            "%s=%.6g" % (n, result["metrics"][n]["value"]) for n in values),
            steal[0] if steal else "?"), flush=True)

    print("\n%-18s %12s %12s %12s %8s %6s" % ("metric", "median", "q1", "q3",
                                               "spread", "bound"))
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        verdict = "steady" if spread < m["bound"] / 3 else "UNSTEADY"
        print("%-18s %12.6g %12.6g %12.6g %8.4f %6.2f %s" % (
            m["name"], med, q1, q3, spread, m["bound"], verdict))
    print("failed share per run: %s" % sorted(set(failed_shares)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
