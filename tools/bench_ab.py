#!/usr/bin/env python3
"""Interleaved A/B of two builds of one Google Benchmark binary.

    tools/bench_ab.py --parent OLD_BINARY --change NEW_BINARY \\
        --rounds 2 --out BENCH_synth.json [-- extra benchmark flags]

Each round runs both binaries once with --benchmark_repetitions=10
--benchmark_format=json, flipping which side goes first every round, and
keeps every repetition's real time. The output lists, per benchmark, the
sample count, median and quartiles (IQR = Q3 - Q1) of each side and the
ratio of the medians (change / parent); its "bench" label is the
binary's file name. Both binaries must be optimized builds of identical
benchmark code.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys


def run(binary, extra):
    cmd = [binary, "--benchmark_repetitions=10", "--benchmark_format=json"] + extra
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    samples = {}
    for b in json.loads(out)["benchmarks"]:
        if b.get("run_type") != "iteration":
            continue
        samples.setdefault(b["run_name"], []).append((b["real_time"], b["time_unit"]))
    return samples


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4),
            "iqr": round(q3 - q1, 4)}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--rounds", type=int, default=2)
    parser.add_argument("--out", required=True)
    parser.add_argument("extra", nargs="*")
    args = parser.parse_args()

    sides = {"parent": {}, "change": {}}
    units = {}
    for r in range(args.rounds):
        order = ["parent", "change"] if r % 2 == 0 else ["change", "parent"]
        for side in order:
            binary = args.parent if side == "parent" else args.change
            for name, runs in run(binary, args.extra).items():
                sides[side].setdefault(name, []).extend(t for t, _ in runs)
                units[name] = runs[0][1]
            print(f"round {r + 1}/{args.rounds}: {side} done", file=sys.stderr)

    rows = []
    for name in sides["parent"]:
        p = summary(sides["parent"][name])
        c = summary(sides["change"][name])
        rows.append({"name": name, "unit": units[name],
                     "n": len(sides["parent"][name]), "parent": p, "change": c,
                     "ratio": round(c["median"] / p["median"], 3)})
    doc = {"bench": os.path.basename(args.change), "metric": "real_time per iteration",
           "method": f"{args.rounds} alternating rounds x 10 repetitions per side",
           "host": {"machine": platform.machine(), "cpus": os.cpu_count()},
           "rows": rows}
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
