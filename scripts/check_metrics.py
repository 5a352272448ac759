#!/usr/bin/env python3
"""Validates a metrics file written by hcd_cli --metrics-out.

For Prometheus text exposition (the default format): checks the HELP/TYPE
structure, that histogram bucket series are cumulative and end in an +Inf
bucket equal to the _count series, and optionally that a named histogram's
total count matches an expected value (e.g. hcd_query_latency_seconds,
which must equal serve-bench's --queries), that a named gauge is present
or carries an expected value (e.g. hcd_snapshot_mapped_bytes while a
snapshot is mapped), or that a named counter carries an expected value
(e.g. the serve smoke's hcd_server_requests_total, which must equal
serve-bench's --queries).

For .json files: checks the document parses and has the metrics envelope.

A labeled histogram series (e.g. the per-phase
hcd_server_phase_seconds{phase="search"} family the query server exports)
can be asserted present-and-populated with --expect-histogram.

Usage:
  check_metrics.py METRICS_FILE [--expect-histogram-count=NAME=N ...]
                                [--expect-histogram=NAME{label=value} ...]
                                [--expect-gauge=NAME[=VALUE] ...]
                                [--expect-counter=NAME=N ...]

Exits non-zero with a diagnostic on the first violated check.
"""

import argparse
import json
import re
import sys


def check_json(path: str) -> int:
    with open(path) as f:
        doc = json.load(f)
    metrics = doc.get("metrics")
    if not isinstance(metrics, list):
        print("metrics array missing")
        return 1
    for m in metrics:
        if "name" not in m or "type" not in m:
            print(f"metric missing name/type: {m}")
            return 1
    print(f"OK: {len(metrics)} metrics (JSON)")
    return 0


SAMPLE_RE = re.compile(
    r"^(?P<name>[A-Za-z_:][A-Za-z0-9_:]*)"
    r"(?P<labels>\{[^}]*\})? (?P<value>\S+)$"
)


HISTOGRAM_SPEC_RE = re.compile(
    r"^(?P<name>[A-Za-z_:][A-Za-z0-9_:]*)"
    r"(?:\{(?P<labels>[A-Za-z0-9_]+=[^,{}]+(?:,[A-Za-z0-9_]+=[^,{}]+)*)\})?$"
)


def parse_histogram_spec(spec: str):
    """NAME{label=value,...} -> (name, {label: value}); labels optional."""
    match = HISTOGRAM_SPEC_RE.match(spec)
    if not match:
        raise ValueError(f"malformed --expect-histogram spec: {spec!r}")
    labels = {}
    if match.group("labels"):
        for pair in match.group("labels").split(","):
            key, _, value = pair.partition("=")
            labels[key] = value.strip('"')
    return match.group("name"), labels


def check_prometheus(
    path: str, expectations: dict, histograms: list, gauges: dict,
    counters: dict
) -> int:
    with open(path) as f:
        lines = f.read().splitlines()

    types: dict = {}
    # (family, non-le labels) -> list of (le, cumulative count), counts
    buckets: dict = {}
    counts: dict = {}
    samples: dict = {}  # (name, labels) -> float, for gauge/counter samples

    for i, line in enumerate(lines):
        if not line:
            continue
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            parts = line.split(" ", 3)
            if len(parts) < 4 or not parts[2]:
                print(f"line {i + 1}: malformed comment: {line!r}")
                return 1
            if parts[1] == "TYPE":
                if parts[3] not in ("counter", "gauge", "histogram"):
                    print(f"line {i + 1}: unknown type {parts[3]!r}")
                    return 1
                types[parts[2]] = parts[3]
            continue
        match = SAMPLE_RE.match(line)
        if not match:
            print(f"line {i + 1}: malformed sample: {line!r}")
            return 1
        name, labels, value = (
            match.group("name"),
            match.group("labels") or "",
            match.group("value"),
        )
        if name.endswith("_bucket"):
            family = name[: -len("_bucket")]
            le_match = re.search(r'le="([^"]*)"\}?$', labels)
            if not le_match:
                print(f"line {i + 1}: bucket sample without le: {line!r}")
                return 1
            rest = re.sub(r',?le="[^"]*"', "", labels)
            if rest == "{}":  # le was the only label
                rest = ""
            buckets.setdefault((family, rest), []).append(
                (le_match.group(1), int(value))
            )
        elif name.endswith("_count"):
            counts[(name[: -len("_count")], labels)] = int(value)
        else:
            samples[(name, labels)] = float(value)  # must at least be numeric

    for (family, labels), series in buckets.items():
        if types.get(family) != "histogram":
            print(f"{family}: bucket series but TYPE is {types.get(family)!r}")
            return 1
        values = [count for _, count in series]
        if values != sorted(values):
            print(f"{family}{labels}: bucket series is not cumulative: {values}")
            return 1
        if series[-1][0] != "+Inf":
            print(f"{family}{labels}: last bucket is {series[-1][0]!r}, want +Inf")
            return 1
        if (family, labels) not in counts:
            print(f"{family}{labels}: no _count sample")
            return 1
        if counts[(family, labels)] != series[-1][1]:
            print(
                f"{family}{labels}: _count {counts[(family, labels)]} != "
                f"+Inf bucket {series[-1][1]}"
            )
            return 1

    for family, expected in expectations.items():
        total = counts.get((family, ""))
        if total is None:
            print(f"{family}: expected histogram not found (unlabeled series)")
            return 1
        if total != expected:
            print(f"{family}: count {total} != expected {expected}")
            return 1

    for name, want_labels in histograms:
        if types.get(name) != "histogram":
            print(f"{name}: expected a histogram, TYPE is {types.get(name)!r}")
            return 1
        # Any series of the family whose labels include every wanted pair
        # satisfies the spec; it must also have observations.
        matched = None
        for (family, labels), total in counts.items():
            if family != name:
                continue
            if all(f'{k}="{v}"' in labels for k, v in want_labels.items()):
                matched = ((family, labels), total)
                break
        if matched is None:
            rendered = ",".join(f"{k}={v}" for k, v in want_labels.items())
            print(f"{name}{{{rendered}}}: histogram series not found")
            return 1
        if matched[1] == 0:
            print(f"{matched[0][0]}{matched[0][1]}: histogram has no "
                  "observations")
            return 1

    for name, expected in gauges.items():
        if types.get(name) != "gauge":
            print(f"{name}: expected a gauge, TYPE is {types.get(name)!r}")
            return 1
        value = samples.get((name, ""))
        if value is None:
            print(f"{name}: expected gauge not found (unlabeled series)")
            return 1
        if expected is not None and value != expected:
            print(f"{name}: gauge value {value} != expected {expected}")
            return 1

    for name, expected in counters.items():
        if types.get(name) != "counter":
            print(f"{name}: expected a counter, TYPE is {types.get(name)!r}")
            return 1
        value = samples.get((name, ""))
        if value is None:
            print(f"{name}: expected counter not found (unlabeled series)")
            return 1
        if value != expected:
            print(f"{name}: counter value {value} != expected {expected}")
            return 1

    print(f"OK: {len(types)} families, {len(buckets)} histogram series")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("metrics", help="path to the metrics file")
    parser.add_argument(
        "--expect-histogram-count",
        action="append",
        default=[],
        metavar="NAME=N",
        help="unlabeled histogram NAME must have _count == N (repeatable)",
    )
    parser.add_argument(
        "--expect-histogram",
        action="append",
        default=[],
        metavar="NAME{label=value}",
        help="histogram series with (at least) the given labels must exist "
        "and have a nonzero _count; bare NAME matches any series of the "
        "family (repeatable)",
    )
    parser.add_argument(
        "--expect-gauge",
        action="append",
        default=[],
        metavar="NAME[=VALUE]",
        help="unlabeled gauge NAME must exist; with =VALUE it must also "
        "equal VALUE (repeatable)",
    )
    parser.add_argument(
        "--expect-counter",
        action="append",
        default=[],
        metavar="NAME=N",
        help="unlabeled counter NAME must equal N (repeatable)",
    )
    args = parser.parse_args()

    expectations = {}
    for spec in args.expect_histogram_count:
        name, _, value = spec.partition("=")
        expectations[name] = int(value)
    histograms = []
    for spec in args.expect_histogram:
        histograms.append(parse_histogram_spec(spec))
    gauges = {}
    for spec in args.expect_gauge:
        name, sep, value = spec.partition("=")
        # Bare NAME asserts presence only (value checks need a "=VALUE").
        gauges[name] = float(value) if sep else None
    counters = {}
    for spec in args.expect_counter:
        name, _, value = spec.partition("=")
        counters[name] = int(value)

    if args.metrics.endswith(".json"):
        if expectations or histograms or gauges or counters:
            print("--expect-* checks only apply to Prometheus files")
            return 2
        return check_json(args.metrics)
    return check_prometheus(
        args.metrics, expectations, histograms, gauges, counters
    )


if __name__ == "__main__":
    sys.exit(main())
