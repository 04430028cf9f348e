#!/usr/bin/env python3
"""Runs the benchmark once per seed and prints, per metric, the median
and the distance between the first and third quartiles as a share of the
median, beside the metric's bound from BENCHMARK.json.

Run from the repository root:

    python3 perfbench/spread.py --workload gen-serial [--runs 10]
        [--first-seed 1] [--trace 0|1] [--records]

With --records it also prints the `median` records of
perfbench/baseline.jsonl for the runs it made.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--records", action="store_true")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    section = "per_layer" if args.trace == "1" else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in bench[section]}

    values = {name: [] for name in bounds}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        command = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", args.trace,
        ]
        done = subprocess.run(command, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {done.returncode}\n{done.stdout}{done.stderr}")
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: incorrect result\n{done.stdout}")
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{n}={v[-1]:.6g}" for n, v in values.items()), file=sys.stderr)

    print(f"{'metric':<30} {'median':>16} {'spread':>8} {'bound':>6} {'spread/bound':>12}")
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median if median else 0.0
        bound = bounds[name]
        ratio = f"{spread / bound:.2f}" if bound else "-"
        print(f"{name:<30} {median:>16.6f} {spread:>8.4f} {bound or '-':>6} {ratio:>12}")
        if args.records:
            print(json.dumps({
                "record": "median", "workload": args.workload, "metric": name,
                "median": median, "q1": q1, "q3": q3, "spread": spread,
                "runs": len(vals),
            }, separators=(",", ":")))


if __name__ == "__main__":
    main()
