#!/usr/bin/env python3
"""The acceptance check for the benchmark's own steadiness.

Runs the command BENCHMARK.json names N times per workload, each with
another seed, and prints for every end-to-end metric the distance between
the first and third quartile of its values as a share of their median,
next to the metric's bound. Run it from the root of a checkout:

    python3 benchmark/spread.py [-n 10] [--first-seed 1] [workload ...]

Exit code 1 if any spread but setup_s's exceeds its bound.
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("-n", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    breached = False
    for name in names:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for i in range(args.n):
            cmd = spec["command"] + ["--workload", name, "--seed", str(args.first_seed + i),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print(f"{name} seed {args.first_seed + i}: not correct\n{out}", file=sys.stderr)
                breached = True
            for k, v in result["metrics"].items():
                values[k].append(v["value"])
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            flag = ""
            if spread > m["bound"] and m["name"] != "setup_s":
                flag, breached = "  BREACH", True
            elif spread > m["bound"] / 3:
                flag = "  (above a third of the bound)"
            print(f"{name:10s} {m['name']:16s} median {med:12.4f} {m['unit']:4s} "
                  f"spread {spread:6.3f}  bound {m['bound']:.2f}{flag}", flush=True)
    sys.exit(1 if breached else 0)


if __name__ == "__main__":
    main()
