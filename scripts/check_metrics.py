#!/usr/bin/env python3
"""Validator for the `metrics` wire op's Prometheus text exposition.

    python3 scripts/check_metrics.py <role> <file>

`<file>` holds either the raw exposition text or the one-line JSON
reply from the `metrics` op (in which case the `exposition` field is
extracted). `<role>` picks the layer coverage the scrape must show:

    serve     a bare model server            -> serve_*
    learner   a learner replica              -> serve_*, online_*, snn_*
    follower  a follower replica             -> serve_*, online_*, replica_*
    router    the fleet router               -> router_*, plus per-replica
              serve_* series stamped with a replica="N" label

Every role must also expose the registry's own obs_* self-metrics
(the per-level event counters and the trace tail-sampler counters).

Beyond coverage, the exposition itself is checked for well-formedness:
every sample parses, every family has exactly one HELP and TYPE comment
before its samples, histogram buckets are cumulative and end at +Inf
with the family's _count. Every fleet-prefixed family must also appear
in scripts/expected_metrics.json — the registration inventory generated
by `ncl-lint --dump-metrics` — so a scrape can never expose a family
the linter (and the README metrics table it enforces) does not know
about. Exits nonzero with a pointed message on the first violation.
"""

import json
import os
import re
import sys

SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^{}]*)\})? "
    r"(?P<value>[^ ]+)$"
)
LABEL_RE = re.compile(r'^([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"$')

ROLE_PREFIXES = {
    "serve": ["serve_", "obs_"],
    "learner": ["serve_", "online_", "snn_", "obs_"],
    "follower": ["serve_", "online_", "replica_", "obs_"],
    "router": ["router_", "obs_"],
}

# Every prefix the fleet owns; families under these must be in the
# expected-metrics inventory (scripts/expected_metrics.json).
FLEET_PREFIXES = ["serve_", "router_", "replica_", "online_", "snn_", "obs_"]

EXPECTED_METRICS_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "expected_metrics.json"
)


class CheckFailure(AssertionError):
    pass


def ensure(condition, message):
    if not condition:
        raise CheckFailure(message)


def parse_labels(raw):
    if not raw:
        return {}
    labels = {}
    for pair in raw.split(","):
        m = LABEL_RE.match(pair)
        ensure(m, f"malformed label pair {pair!r}")
        labels[m.group(1)] = m.group(2)
    return labels


def parse_exposition(text):
    """Returns (families, samples).

    families: name -> type; samples: list of (name, labels, value).
    """
    families = {}
    helps = set()
    samples = []
    for lineno, line in enumerate(text.splitlines(), 1):
        where = f"line {lineno}"
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            name = line.split(" ", 3)[2]
            ensure(name not in helps, f"{where}: duplicate HELP for {name}")
            helps.add(name)
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            ensure(len(parts) == 4, f"{where}: malformed TYPE comment")
            name, kind = parts[2], parts[3]
            ensure(
                kind in ("counter", "gauge", "histogram"),
                f"{where}: unknown metric type {kind!r}",
            )
            ensure(name not in families, f"{where}: duplicate TYPE for {name}")
            ensure(name in helps, f"{where}: TYPE for {name} lacks a HELP")
            families[name] = kind
            continue
        ensure(not line.startswith("#"), f"{where}: unknown comment {line!r}")
        m = SAMPLE_RE.match(line)
        ensure(m, f"{where}: unparseable sample {line!r}")
        name, labels = m.group("name"), parse_labels(m.group("labels"))
        try:
            value = float(m.group("value"))
        except ValueError:
            raise CheckFailure(f"{where}: non-numeric value in {line!r}")
        family = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in families:
                family = name[: -len(suffix)]
        ensure(family in families, f"{where}: sample {name} has no TYPE")
        samples.append((name, labels, value))
    ensure(samples, "exposition holds no samples at all")
    return families, samples


def check_histograms(families, samples):
    """Buckets cumulative, terminated by le=+Inf matching _count."""
    for family, kind in families.items():
        if kind != "histogram":
            continue
        by_series = {}
        for name, labels, value in samples:
            if name != f"{family}_bucket":
                continue
            key = tuple(sorted((k, v) for k, v in labels.items() if k != "le"))
            by_series.setdefault(key, []).append((labels.get("le"), value))
        counts = {
            tuple(sorted(labels.items())): value
            for name, labels, value in samples
            if name == f"{family}_count"
        }
        ensure(counts, f"histogram {family} lacks _count samples")
        for key, buckets in by_series.items():
            prev = -1.0
            for le, cumulative in buckets:
                ensure(le is not None, f"{family}: bucket without le label")
                ensure(
                    cumulative >= prev,
                    f"{family}{dict(key)}: bucket counts not cumulative",
                )
                prev = cumulative
            ensure(
                buckets[-1][0] == "+Inf",
                f"{family}{dict(key)}: buckets do not end at +Inf",
            )
            ensure(
                counts.get(key) == buckets[-1][1],
                f"{family}{dict(key)}: +Inf bucket disagrees with _count",
            )


def check_expected(families):
    """Fleet-prefixed families must be in the ncl-lint inventory."""
    ensure(
        os.path.exists(EXPECTED_METRICS_PATH),
        f"{EXPECTED_METRICS_PATH} is missing — regenerate it with "
        "`cargo run -p ncl_lint --bin ncl-lint -- --dump-metrics`",
    )
    with open(EXPECTED_METRICS_PATH) as fh:
        expected = set(json.load(fh)["metrics"])
    for name in sorted(families):
        if any(name.startswith(p) for p in FLEET_PREFIXES):
            ensure(
                name in expected,
                f"family {name} is exposed but absent from "
                "expected_metrics.json — if it is a new metric, register "
                "it, then regenerate the inventory with "
                "`ncl-lint --dump-metrics` (the metric-drift lint rule "
                "will also want a README table row)",
            )


def check_role(role, families, samples):
    for prefix in ROLE_PREFIXES[role]:
        ensure(
            any(name.startswith(prefix) for name in families),
            f"role {role}: no {prefix}* family in the exposition",
        )
    if role == "router":
        replicas = {
            labels["replica"]
            for name, labels, _ in samples
            if name.startswith("serve_") and "replica" in labels
        }
        ensure(
            replicas,
            "role router: no replica-stamped serve_* series "
            "(is the fleet merge broken?)",
        )
        ups = {
            labels["replica"]: value
            for name, labels, value in samples
            if name == "router_replica_up"
        }
        ensure(ups, "role router: no router_replica_up gauge")
        print(
            f"router fleet view: replicas {sorted(replicas)}, "
            f"up={ups}"
        )


def main():
    if len(sys.argv) != 3 or sys.argv[1] not in ROLE_PREFIXES:
        roles = "|".join(ROLE_PREFIXES)
        print(f"usage: check_metrics.py <{roles}> <file>", file=sys.stderr)
        return 2
    role, path = sys.argv[1], sys.argv[2]
    with open(path) as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        reply = json.loads(text)
        ensure(reply.get("ok") is True, f"{path}: metrics op replied {reply}")
        ensure(
            reply.get("format") == "prometheus-text-0.0.4",
            f"{path}: unexpected format {reply.get('format')!r}",
        )
        text = reply["exposition"]
    try:
        families, samples = parse_exposition(text)
        check_histograms(families, samples)
        check_role(role, families, samples)
        check_expected(families)
    except CheckFailure as failure:
        print(f"check_metrics: {path}: {failure}", file=sys.stderr)
        return 1
    print(
        f"check_metrics: {path} ok as {role}: "
        f"{len(families)} families, {len(samples)} samples"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
