#!/usr/bin/env python3
"""Interleaved A/B of two builds of one Google Benchmark binary.

    tools/bench_ab.py --parent OLD_BINARY --change NEW_BINARY \\
        --rounds 2 --out BENCH_synth.json [-- extra benchmark flags]
    tools/bench_ab.py --parent OLD_CHECKOUT --change NEW_CHECKOUT \\
        --workload paper_suite [--workload server_mix ...] \\
        --seed 201 --seconds 25 --rounds 1 --out BENCH_sweep.json

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

With --workload, --parent and --change are checkout roots and each
repetition is one pair of repository-benchmark runs (perfbench/run.py,
--trace 0), first side alternating, one workload after another. The output
lists, per workload and end-to-end metric, the same summaries plus the
number of pairs in which the change was better (in the direction
BENCHMARK.json gives) and the median of the per-pair ratios, and each
side's counts digests. A run that exits nonzero or reports a wrong verdict
stops the A/B.
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


def run_perfbench(root, workload, seed, seconds):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{root}: {workload} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result.get("correct"):
        sys.exit(f"{root}: {workload} reported a wrong verdict")
    digest = next((l.split()[-1] for l in lines if l.startswith("counts digest")), None)
    return result, digest


def perfbench_ab(args):
    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        better = {m["name"]: m["better"] for m in json.load(f)["end_to_end"]}
    rows = []
    for workload in args.workload:
        values = {"parent": {}, "change": {}}
        digests = {"parent": set(), "change": set()}
        failed = {"parent": 0, "change": 0}
        total = args.rounds * REPETITIONS
        for rep in range(total):
            order = ["parent", "change"] if rep % 2 == 0 else ["change", "parent"]
            for side in order:
                root = args.parent if side == "parent" else args.change
                result, digest = run_perfbench(root, workload, args.seed, args.seconds)
                for name, metric in result["metrics"].items():
                    values[side].setdefault(name, []).append(metric["value"])
                digests[side].add(digest)
                failed[side] += result.get("failed", 0)
            print(f"{workload}: pair {rep + 1}/{total} done", file=sys.stderr)
        for name in sorted(set(values["parent"]) & set(values["change"])):
            pv, cv = values["parent"][name], values["change"][name]
            lower = better.get(name, "lower") == "lower"
            wins = sum(1 for p, c in zip(pv, cv) if (c < p if lower else c > p))
            ratios = [c / p for p, c in zip(pv, cv) if p != 0]
            p_sum, c_sum = summary(pv), summary(cv)
            rows.append({
                "name": f"{workload}/{name}", "better": better.get(name, "lower"),
                "n": len(pv), "parent": p_sum, "change": c_sum,
                "ratio": round(c_sum["median"] / p_sum["median"], 3) if p_sum["median"] else None,
                "change_better_pairs": wins,
                "median_pair_ratio": round(statistics.median(ratios), 3) if ratios else None})
        rows.append({"name": f"{workload}/counts_digest",
                     "parent": sorted(d for d in digests["parent"] if d),
                     "change": sorted(d for d in digests["change"] if d),
                     "failed_operations": failed})
    return {"bench": "perfbench", "metric": "end-to-end metrics of perfbench/run.py",
            "method": f"{args.rounds * REPETITIONS} interleaved parent/change pairs per "
                      f"workload, seed {args.seed}, --seconds {args.seconds}, --trace 0, "
                      "first side alternating",
            "host": {"machine": platform.machine(), "cpus": os.cpu_count()},
            "rows": rows}


def write(doc, path):
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


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
    parser.add_argument("--workload", action="append",
                        choices=["paper_suite", "server_mix", "circuit_cdcl"],
                        help="A/B the repository benchmark between two checkouts")
    parser.add_argument("--seed", type=int, default=201)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("extra", nargs="*")
    args = parser.parse_args()

    if args.workload:
        write(perfbench_ab(args), args.out)
        return 0

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
    write(doc, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
