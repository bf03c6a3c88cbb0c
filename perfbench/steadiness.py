#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each end-to-end
metric's spread: the distance between the first and third quartile of
its values, as a share of their median (statistics.quantiles, n=4).

    python3 perfbench/steadiness.py --workloads serve_cold,train_fit \
        --seeds 1,2,3,4,5,6,7,8,9,10 [--out perfbench/out/steadiness.json]

Run from the repository root. A spread under a third of the metric's
bound in BENCHMARK.json is reported as steady; `setup_s` spread is
informational (its medians, not its spread, are compared).
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(cmd, workload, seed, seconds):
    argv = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    context = lines[-2] if len(lines) >= 2 else ""
    return result, context


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", required=True)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--out")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = [int(s) for s in args.seeds.split(",")]
    record = {}
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in seeds:
            result, context = run_once(bench["command"], workload, seed, seconds)
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: incorrect result {result}")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"  {workload} seed {seed}: " + ", ".join(
                f"{n}={result['metrics'][n]['value']:.4g}" for n in bounds), flush=True)
            print(f"    {context}", flush=True)
        print(f"{workload}: {len(seeds)} runs")
        print(f"  {'metric':18} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  verdict")
        record[workload] = {}
        for name, vals in values.items():
            med, q1, q3, sp = spread(vals)
            bound = bounds[name]
            verdict = "info" if name == "setup_s" else (
                "steady" if sp < bound / 3 else ("within bound" if sp <= bound else "TOO NOISY"))
            print(f"  {name:18} {med:12.5g} {q1:12.5g} {q3:12.5g} {sp:8.4f} {bound:6.2f}  {verdict}")
            record[workload][name] = {"values": vals, "median": med, "q1": q1, "q3": q3,
                                      "spread": sp, "bound": bound}
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"seeds": seeds, "seconds": seconds, "workloads": record}, f, indent=1)


if __name__ == "__main__":
    main()
