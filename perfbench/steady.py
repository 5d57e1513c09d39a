#!/usr/bin/env python3
"""Steadiness check for the HSIS benchmark.

Runs perfbench/run.py several times on one workload, each time with
another seed, and prints for every end-to-end metric its median, first and
third quartile (statistics.quantiles(values, n=4)), and the spread
(q3 - q1) / median against the metric's bound in BENCHMARK.json.  A spread
within a third of the bound is steady; within the bound is acceptable.

    python3 perfbench/steady.py --workload table1 --runs 10 --seed 1 \
        --save .perfbench_work/steady-table1-a.json
    python3 perfbench/steady.py --workload table1 --runs 10 --seed 101 \
        --compare .perfbench_work/steady-table1-a.json

--compare also checks that each median is not worse than the saved set's
by more than the bound.  --load re-prints a saved set without running.
Exits 1 when any run fails a check or a spread (setup_s excepted) or a
median drift exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1, help="first seed; run k uses seed + k")
    ap.add_argument("--save", help="write the values and medians to this JSON file")
    ap.add_argument("--compare", help="a file written by --save to compare medians against")
    ap.add_argument("--load", help="a file written by --save to report instead of running")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    metrics = spec["end_to_end"]
    values = {m["name"]: [] for m in metrics}
    bad = []
    if args.load:
        with open(args.load) as f:
            values = json.load(f)["values"]
    for k in range(0 if args.load else args.runs):
        seed = args.seed + k
        p = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True)
        if p.returncode != 0:
            print(p.stderr[-3000:], file=sys.stderr)
            sys.exit("run with seed %d exited with %d" % (seed, p.returncode))
        result = json.loads(p.stdout.strip().splitlines()[-1])
        print("seed %d: correct=%s attempted=%d failed=%d" % (
            seed, result["correct"], result["attempted"], result["failed"]), flush=True)
        if not result["correct"]:
            bad.append("seed %d: incorrect" % seed)
        for name in values:
            values[name].append(result["metrics"][name]["value"])

    previous = None
    if args.compare:
        with open(args.compare) as f:
            previous = json.load(f)["medians"]
    print("%-22s %12s %12s %12s %8s %6s %7s" % ("metric", "median", "q1", "q3", "spread", "bound", "drift"))
    medians = {}
    for m in metrics:
        name = m["name"]
        xs = values[name]
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / med
        medians[name] = med
        bound = m["bound"]
        drift = ""
        if previous is not None:
            worse = (med - previous[name]) if m["better"] == "lower" else (previous[name] - med)
            d = worse / previous[name]
            drift = "%+.3f" % d
            if d > bound:
                bad.append("%s: median worse by %.3f > %.3f" % (name, d, bound))
        verdict = "steady" if spread < bound / 3 else ("ok" if spread <= bound else "UNSTEADY")
        if spread > bound and name != "setup_s":
            bad.append("%s: spread %.3f > bound %.3f" % (name, spread, bound))
        print("%-22s %12.6g %12.6g %12.6g %8.4f %6.2f %7s %s" % (
            name, med, q1, q3, spread, bound, drift, verdict))
    if args.save:
        with open(args.save, "w") as f:
            json.dump({"workload": args.workload, "seeds": [args.seed, args.seed + args.runs - 1],
                       "values": values, "medians": medians}, f, indent=1)
    for b in bad:
        print("FAIL: " + b)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
