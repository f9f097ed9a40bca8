#!/usr/bin/env python3
"""Steadiness check: runs the benchmark on several seeds and prints, for
each end-to-end metric, the median and the interquartile spread as a share
of the median (Python's statistics.quantiles(values, n=4)), next to the
metric's bound from BENCHMARK.json.

    python3 perfbench/steady.py --workload paper --seeds 101-110 [--binary PATH]

Run from the repository root. Without --binary it runs the command in
BENCHMARK.json (which builds the benchmark first).
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--binary")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    command = [args.binary] if args.binary else bench["command"]
    metrics = bench["per_layer" if args.trace == "1" else "end_to_end"]
    values = {m["name"]: [] for m in metrics}
    runs = []
    for seed in seeds_of(args.seeds):
        out = subprocess.run(
            command + ["--workload", args.workload, "--seed", str(seed),
                       "--seconds", str(bench["run_seconds"]), "--trace", args.trace],
            capture_output=True, text=True, check=False)
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: incorrect or failed operations: {result}")
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        meta = json.loads(lines[-2].removeprefix("meta "))
        runs.append(f"seed {seed}: {meta['wall_s']:.1f} s, "
                    f"{100 * meta['steal_share']:.1f}% stolen, "
                    f"{result['attempted']} attempted, {result['failed']} failed")
        print(runs[-1], file=sys.stderr, flush=True)
    print(f"{'metric':<24} {'median':>14} {'iqr/median':>11} {'bound':>6}")
    for m in metrics:
        v = values[m["name"]]
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4)
        spread = (q[2] - q[0]) / med if med else float("inf")
        print(f"{m['name']:<24} {med:>14.6g} {spread:>11.4f} {m.get('bound', ''):>6}  "
              + " ".join(f"{x:.4g}" for x in v))


if __name__ == "__main__":
    main()
