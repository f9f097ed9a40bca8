#!/usr/bin/env python3
"""Paired A/B runs of the repository benchmark declared in BENCHMARK.json.

    python3 scripts/ab.py [--base REV] [--change REV] [--pairs N] [--seed S]
                          [--raw FILE]
    python3 scripts/ab.py --report FILE

A side is a git revision, checked out with `git worktree` under the
gitignored `.bench_build/` (default: base `HEAD~1`, change `HEAD`). Both
sides are built first. Then, per BENCHMARK.json workload, N pairs of runs of the unmodified BENCHMARK.json command with
`--workload W --seed S+i --seconds <run_seconds>` appended: pair i uses seed
S+i on both sides, and even pairs run the base first, odd pairs the change.
A run's result is the JSON object on its last stdout line. With --raw each
run is appended to FILE as one JSON line as soon as it ends; --report
re-reads such a file and prints the analysis without running anything.

Per workload and end-to-end metric the report gives each side's median and
quartiles, the median of the per-pair ratios change/base, the pairs the
change won, tied and lost, and a verdict:

  gain        the change wins at least 9/10 of the pairs run (ties count
              for neither side; a pair in which either run lacks the
              metric, e.g. because it failed, counts as lost) and its
              median is better by more than the base's interquartile
              range;
  regression  the change's median is worse than the base's by more than
              the metric's BENCHMARK.json bound (relative to the base);
  identical   every pair reads the same value on both sides;
  unchanged   none of the above, with both the median gap and the base's
              interquartile range within the bound;
  unresolved  anything else: the runs spread too widely to tell.

It also compares the sides' failed-operation shares. The exit status is 1
when a metric regresses, the failed share rises or a run fails its output
checks, else 0.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# A gain needs the change to win at least this share of the pairs.
WIN_SHARE = 0.9


def load_bench(path):
    with open(path) as handle:
        return json.load(handle)


def build_command(command):
    """The build step of a `cargo run ... -- ARGS` command, else None (the
    command then builds whatever it runs by itself)."""
    if command[:2] != ["cargo", "run"]:
        return None
    end = command.index("--") if "--" in command else len(command)
    return ["cargo", "build"] + command[2:end]


def run_args(workload, seed, seconds):
    return ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]


def schedule(pairs, seed):
    """(pair, seed, side order) for each pair, alternating the first side."""
    return [(i, seed + i, ("base", "change") if i % 2 == 0 else ("change", "base"))
            for i in range(pairs)]


def result_line(stdout):
    """The JSON object on the last non-empty stdout line, or None."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        return None
    try:
        value = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return value if isinstance(value, dict) and "metrics" in value else None


def checkout(side, root):
    """A git worktree of revision `side` under .bench_build/."""
    sha = subprocess.run(["git", "rev-parse", "--verify", side + "^{commit}"], cwd=root,
                         check=True, capture_output=True, text=True).stdout.strip()
    path = os.path.join(root, ".bench_build", sha[:12])
    if not os.path.isdir(path):
        subprocess.run(["git", "worktree", "add", "--detach", path, sha], cwd=root,
                       check=True, stdout=subprocess.DEVNULL)
    return path


def run_once(command, directory, args):
    proc = subprocess.run(command + args, cwd=directory, capture_output=True, text=True)
    result = result_line(proc.stdout)
    if result is None:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"exit {proc.returncode}: {tail[0]}"}
    return result


def quartiles(values):
    """(q1, median, q3), interpolated between the ordered values."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def metric_value(run, name):
    entry = run.get("metrics", {}).get(name)
    return entry.get("value") if isinstance(entry, dict) else None


def ratio(change, base):
    if base == 0:
        return 1.0 if change == 0 else float("inf")
    return change / base


def compare(pairs, name, better, bound):
    """The analysis of one metric over (base_run, change_run) pairs, or
    None if no pair has it on both sides. The statistics read the pairs
    that have it on both sides; the win share counts every pair."""
    values = [(metric_value(b, name), metric_value(c, name)) for b, c in pairs]
    values = [(b, c) for b, c in values if b is not None and c is not None]
    if not values:
        return None
    base = [b for b, _ in values]
    change = [c for _, c in values]
    sign = 1 if better == "lower" else -1
    wins = sum(1 for b, c in values if sign * (b - c) > 0)
    ties = sum(1 for b, c in values if b == c)
    losses = len(pairs) - wins - ties
    bq1, bmed, bq3 = quartiles(base)
    cq1, cmed, cq3 = quartiles(change)
    gain = sign * (bmed - cmed)  # > 0: the change's median is better
    iqr = bq3 - bq1
    limit = bound * abs(bmed)
    if ties == len(pairs):
        verdict = "identical"
    elif wins >= WIN_SHARE * len(pairs) and gain > iqr:
        verdict = "gain"
    elif -gain > limit:
        verdict = "regression"
    elif abs(gain) <= limit and iqr <= limit:
        verdict = "unchanged"
    else:
        verdict = "unresolved"
    return {
        "metric": name,
        "n": len(pairs),
        "base": (bq1, bmed, bq3),
        "change": (cq1, cmed, cq3),
        "ratio": statistics.median(ratio(c, b) for b, c in values),
        "wins": wins,
        "ties": ties,
        "losses": losses,
        "verdict": verdict,
    }


def failed_share(runs):
    attempted = sum(r.get("attempted", 0) for r in runs if "error" not in r)
    failed = sum(r.get("failed", 0) for r in runs if "error" not in r)
    return failed / attempted if attempted else 0.0


def broken(runs):
    return sum(1 for r in runs if "error" in r or r.get("correct") is not True)


def fmt(x):
    if x == 0 or 0.01 <= abs(x) < 1e6:
        return f"{x:.4g}"
    return f"{x:.3e}"


def analyse(records, bench, out=None):
    """Prints the report for `records` (one dict per run: workload, pair,
    side, result) to `out` (stdout) and returns whether the change passes."""
    out = out or sys.stdout
    ok = True
    workloads = [w["name"] for w in bench["workloads"]]
    for workload in workloads + sorted({r["workload"] for r in records} - set(workloads)):
        runs = {}
        for r in records:
            if r["workload"] == workload:
                runs[(r["pair"], r["side"])] = r["result"]
        pairs = [(runs[(p, "base")], runs[(p, "change")])
                 for p in sorted({p for p, _ in runs})
                 if (p, "base") in runs and (p, "change") in runs]
        if not pairs:
            continue
        base_runs = [b for b, _ in pairs]
        change_runs = [c for _, c in pairs]
        print(f"\n### {workload}: {len(pairs)} pairs\n", file=out)
        print("| metric | base median [q1, q3] | change median [q1, q3] "
              "| median ratio | won/tied/lost | verdict |", file=out)
        print("|---|---|---|---|---|---|", file=out)
        for metric in bench["end_to_end"]:
            row = compare(pairs, metric["name"], metric["better"], metric["bound"])
            if row is None:
                continue
            b, c = row["base"], row["change"]
            print(f"| `{row['metric']}` ({metric['unit']}) "
                  f"| {fmt(b[1])} [{fmt(b[0])}, {fmt(b[2])}] "
                  f"| {fmt(c[1])} [{fmt(c[0])}, {fmt(c[2])}] "
                  f"| {row['ratio']:.3f} | {row['wins']}/{row['ties']}/{row['losses']} "
                  f"| {row['verdict']} |", file=out)
            ok &= row["verdict"] != "regression"
        shares = failed_share(base_runs), failed_share(change_runs)
        bad = broken(base_runs), broken(change_runs)
        print(f"\nfailed-op share: base {shares[0]:.4%}, change {shares[1]:.4%}; "
              f"runs failing their checks: base {bad[0]}, change {bad[1]}", file=out)
        ok &= shares[1] <= shares[0] and bad[1] == 0
    return ok


def read_raw(path):
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD~1", help="revision (HEAD~1)")
    parser.add_argument("--change", default="HEAD", help="revision (HEAD)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1000, help="seed of pair 0")
    parser.add_argument("--raw", help="append each run here as a JSON line")
    parser.add_argument("--report", help="analyse this --raw file; run nothing")
    args = parser.parse_args(argv)
    bench = load_bench(os.path.join(ROOT, "BENCHMARK.json"))

    if args.report:
        return 0 if analyse(read_raw(args.report), bench) else 1

    command = bench["command"]
    dirs = {"base": checkout(args.base, ROOT), "change": checkout(args.change, ROOT)}
    build = build_command(command)
    if build:
        for side, directory in dirs.items():
            print(f"building {side} in {directory}", file=sys.stderr)
            subprocess.run(build, cwd=directory, check=True)

    records = []
    for workload in (w["name"] for w in bench["workloads"]):
        for pair, seed, order in schedule(args.pairs, args.seed):
            for side in order:
                result = run_once(command, dirs[side],
                                  run_args(workload, seed, bench["run_seconds"]))
                record = {"workload": workload, "pair": pair, "seed": seed, "side": side,
                          "result": result}
                records.append(record)
                if args.raw:
                    with open(args.raw, "a") as handle:
                        handle.write(json.dumps(record) + "\n")
                print(f"{workload} pair {pair} seed {seed} {side}: "
                      f"{result.get('error', 'ok')}", file=sys.stderr)
    return 0 if analyse(records, bench) else 1


if __name__ == "__main__":
    sys.exit(main())
