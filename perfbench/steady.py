#!/usr/bin/env python3
"""Runs the benchmark's workloads and reports how steady they are.

From the repository root:

    python3 perfbench/steady.py                  # every workload, seeds 1-10
    python3 perfbench/steady.py --first-seed 11  # an independent second set
    python3 perfbench/steady.py --seeds 1        # every workload once

Each run is the command BENCHMARK.json names, untraced, for run_seconds.
The script prints every run's end-to-end metrics by name and unit, then,
per workload and metric, the median, the quartiles as
statistics.quantiles(values, n=4) gives them, and the spread: the distance
between the quartiles as a share of the median. It exits non-zero if a
run fails its output checks.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workloads", help="comma-separated names; default: all")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    failed = False
    rows = []
    for name in names:
        values = {m["name"]: [] for m in metrics}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            try:
                res = json.loads(lines[-1])
            except (IndexError, ValueError):
                sys.stderr.write(proc.stdout + proc.stderr)
                print(f"{name} seed {seed}: no result (exit {proc.returncode})", flush=True)
                failed = True
                continue
            if proc.returncode != 0 or not res["correct"]:
                sys.stderr.write(proc.stdout)
                failed = True
            shown = " ".join(f"{k}={v['value']:.6g} {v['unit']}" for k, v in res["metrics"].items())
            print(f"{name} seed {seed}: {shown}; attempted {res['attempted']}, failed {res['failed']}", flush=True)
            for k in values:
                values[k].append(res["metrics"][k]["value"])
        for m in metrics:
            xs = values[m["name"]]
            if len(xs) < 2:
                continue
            q1, _, q3 = statistics.quantiles(xs, n=4)
            med = statistics.median(xs)
            rows.append((name, m["name"], m["unit"], med, q1, q3, (q3 - q1) / med, m["bound"]))
    if rows:
        print()
        print("| workload | metric | median | q1 | q3 | spread | bound |")
        print("|---|---|---|---|---|---|---|")
        for name, metric, unit, med, q1, q3, spread, bound in rows:
            print(f"| {name} | {metric} | {med:.4g} {unit} | {q1:.4g} | {q3:.4g} | {spread:.3f} | {bound} |")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
