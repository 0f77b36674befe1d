#!/usr/bin/env python3
"""Interleaved A/B of two builds of one Google Benchmark binary.

    tools/bench_ab.py --parent OLD_BINARY --change NEW_BINARY \\
        --rounds 2 --out BENCH_synth.json [-- extra benchmark flags]

Each round runs 10 repetitions per side, one process per repetition, and
flips which side goes first every repetition, so a drift in the host's
speed lands on both sides alike. It keeps every repetition's real time.
The output lists, per benchmark, the sample count, median and quartiles
(IQR = Q3 - Q1) of each side and the ratio of the medians (change /
parent), plus each side's user counters (state.counters) from its last
repetition when the benchmark sets any; its "bench" label is the binary's
file name. Both binaries must be optimized builds of identical benchmark
code: a benchmark that reports an error, or that only one side runs, stops
the A/B with a message.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

REPETITIONS = 10

# Keys Google Benchmark writes for every run; anything else is a counter.
RUN_KEYS = {"name", "family_index", "per_family_instance_index", "run_name",
            "run_type", "repetitions", "repetition_index", "threads",
            "iterations", "real_time", "cpu_time", "time_unit", "label",
            "aggregate_name", "aggregate_unit", "error_occurred", "error_message"}


def run(binary, extra):
    cmd = [binary, "--benchmark_format=json"] + extra
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    samples, counters = {}, {}
    for b in json.loads(out)["benchmarks"]:
        if b.get("run_type") != "iteration":
            continue
        if b.get("error_occurred"):
            sys.exit(f"{binary}: {b['run_name']}: {b.get('error_message', 'error')}")
        samples.setdefault(b["run_name"], []).append((b["real_time"], b["time_unit"]))
        extra_keys = {k: v for k, v in b.items() if k not in RUN_KEYS}
        if extra_keys:
            counters[b["run_name"]] = extra_keys
    return samples, counters


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
    counters = {"parent": {}, "change": {}}
    units = {}
    total = args.rounds * REPETITIONS
    for rep in range(total):
        order = ["parent", "change"] if rep % 2 == 0 else ["change", "parent"]
        for side in order:
            binary = args.parent if side == "parent" else args.change
            samples, side_counters = run(binary, args.extra)
            for name, runs in samples.items():
                sides[side].setdefault(name, []).extend(t for t, _ in runs)
                units[name] = runs[0][1]
            counters[side].update(side_counters)
        print(f"repetition {rep + 1}/{total} done", file=sys.stderr)

    only = {side: sorted(set(sides[side]) - set(sides[other]))
            for side, other in (("parent", "change"), ("change", "parent"))}
    if only["parent"] or only["change"]:
        sys.exit(f"benchmarks run by one side only: parent {only['parent']}, "
                 f"change {only['change']}")

    rows = []
    for name in sides["parent"]:
        p = summary(sides["parent"][name])
        c = summary(sides["change"][name])
        row = {"name": name, "unit": units[name],
               "n": len(sides["parent"][name]), "parent": p, "change": c,
               "ratio": round(c["median"] / p["median"], 3)}
        if name in counters["parent"] or name in counters["change"]:
            row["counters"] = {side: counters[side].get(name, {}) for side in counters}
        rows.append(row)
    doc = {"bench": os.path.basename(args.change), "metric": "real_time per iteration",
           "method": f"{args.rounds} rounds x {REPETITIONS} repetitions per side, "
                     "one process per repetition, first side alternating",
           "host": {"machine": platform.machine(), "cpus": os.cpu_count()},
           "rows": rows}
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
