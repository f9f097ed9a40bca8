#!/usr/bin/env python3
"""Generic validator for BENCH_*.json reports (the `ncl_serve::bench` format).

    python3 scripts/check_bench.py <kind> <file> [<file> ...]

Each file must have exactly the keys bench (== kind), config, results and
gates (+ an optional headline {name, value}); every gate {name, value, op,
bound, pass} must re-evaluate `value op bound` to its own pass flag and
pass (a null value, how a non-finite float is written, fails every op);
and every gate REQUIRED_GATES lists for the kind must be present. With two
or more files, the first is a fresh run and the last the committed
datapoint: a committed headline must be matched by a fresh one at no less
than NOISE_FLOOR of its value. Exits 1 naming the gate on a violation.
"""

import json
import math
import operator
import sys

OPS = {">": operator.gt, ">=": operator.ge, "<=": operator.le, "==": operator.eq}

# Adding a gate: one gate call in the emitter plus its name here.
REQUIRED_GATES = {
    "train": ("pool_bit_identical", "scenarios", "reference_samples_per_sec_min",
              "pool_runs_min", "pool_samples_per_sec_min"),
    "serve": ("requests_ok", "requests_failed", "hot_swap_ok"),
    "online": ("events_per_sec", "warm_events_per_sec", "increments", "train_wall_ms_min",
               "predictions_failed", "checkpoint_round_trip", "final_version"),
    "router": ("replicas", "direct_requests_ok", "routed_requests_ok", "direct_requests_failed",
               "routed_requests_failed", "background_requests_failed", "increments",
               "delta_max_ratio", "unpropagated_increments", "oversized_deltas",
               "follower_bit_identical"),
    "fleet": ("replicas", "failover_rounds", "failover_latency_samples", "promotions",
              "final_epoch", "background_requests_ok", "background_requests_failed",
              "survivors_bit_identical", "rejoin_delta_converged", "rejoin_full_sync_converged",
              "rejoin_delta_full_syncs", "rejoin_delta_deltas_applied",
              "rejoin_full_sync_full_syncs", "rejoin_full_sync_deltas_applied",
              "rejoin_delta_bytes_per_hop"),
}

REPORT_KEYS = {"bench", "config", "results", "gates"}
GATE_KEYS = {"name", "value", "op", "bound", "pass"}

# A fresh run may be slower than the committed datapoint (different
# runner, cold caches), but not catastrophically: instrumentation on the
# hot path must stay within noise, not halve throughput.
NOISE_FLOOR = 0.5


class CheckFailure(AssertionError):
    pass


def ensure(condition, message):
    if not condition:
        raise CheckFailure(message)


def is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def check_report(kind, path):
    """Validates one report file; returns it."""
    with open(path) as handle:
        report = json.load(handle)
    ensure(isinstance(report, dict), f"{path}: not a JSON object")
    ensure(
        set(report) - {"headline"} == REPORT_KEYS,
        f"{path}: top-level keys {sorted(report)} are not {sorted(REPORT_KEYS)}"
        " (+ optional headline)",
    )
    ensure(report["bench"] == kind, f"{path}: bench kind {report['bench']!r} is not {kind!r}")
    ensure(isinstance(report["config"], dict), f"{path}: config is not an object")
    ensure(isinstance(report["results"], dict), f"{path}: results is not an object")
    head = report.get("headline")
    ensure(
        head is None or isinstance(head, dict) and set(head) == {"name", "value"}
        and isinstance(head["name"], str) and is_number(head["value"]),
        f"{path}: malformed headline {head!r}",
    )
    ensure(isinstance(report["gates"], list), f"{path}: gates is not a list")
    seen = set()
    for gate in report["gates"]:
        ensure(
            isinstance(gate, dict) and set(gate) == GATE_KEYS,
            f"{path}: malformed gate {gate!r}",
        )
        name, value, op, bound = gate["name"], gate["value"], gate["op"], gate["bound"]
        ensure(name not in seen, f"{path}: gate {name} appears twice")
        seen.add(name)
        ensure(op in OPS, f"{path}: gate {name} has unknown op {op!r}")
        ensure(is_number(bound), f"{path}: gate {name} bound {bound!r} is not a number")
        ensure(
            value is None or is_number(value),
            f"{path}: gate {name} value {value!r} is not a number",
        )
        holds = value is not None and math.isfinite(value) and OPS[op](value, bound)
        ensure(
            gate["pass"] is holds,
            f"{path}: gate {name} says pass={gate['pass']!r} but {value} {op} {bound} is {holds}",
        )
        ensure(holds, f"{path}: gate {name} failed: {value} {op} {bound} does not hold")
    missing = [name for name in REQUIRED_GATES[kind] if name not in seen]
    ensure(not missing, f"{path}: missing required gate(s) {', '.join(missing)}")
    return report


def check_headline(fresh_path, fresh, committed_path, committed):
    base = committed.get("headline")
    if base is None:
        return
    name = base["name"]
    head = fresh.get("headline")
    ensure(
        head is not None and head["name"] == name,
        f"{fresh_path}: lacks the headline {name} that {committed_path} carries",
    )
    ensure(
        head["value"] >= base["value"] * NOISE_FLOOR,
        f"{fresh_path}: headline {name} {head['value']:.0f} is below "
        f"{NOISE_FLOOR:.0%} of the committed {base['value']:.0f} ({committed_path})",
    )
    print(f"headline {name} within noise: fresh {head['value']:.0f} vs committed {base['value']:.0f}")


def main(argv):
    if len(argv) < 3 or argv[1] not in REQUIRED_GATES:
        kinds = "|".join(sorted(REQUIRED_GATES))
        print(f"usage: check_bench.py <{kinds}> <file> [<file> ...]", file=sys.stderr)
        return 2
    kind, paths = argv[1], argv[2:]
    try:
        reports = [check_report(kind, path) for path in paths]
        for path, report in zip(paths, reports):
            print(f"{kind} bench ok ({path}): {len(report['gates'])} gates passed")
        if len(paths) >= 2:
            check_headline(paths[0], reports[0], paths[-1], reports[-1])
    except CheckFailure as failure:
        print(f"check_bench: FAILED: {failure}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as problem:
        print(f"check_bench: FAILED: {problem!r}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
