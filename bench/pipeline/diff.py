#!/usr/bin/env python3
"""Compares two sets of pipeline benchmark runs and gates regressions.

  python3 bench/pipeline/diff.py BASE.jsonl NEW.jsonl

BASE and NEW are result files written by `run.py --results`, typically ten
or more runs per workload on each side (alternate which side runs first).
For every (workload, end-to-end metric) the report gives each side's median
and quartiles and one verdict, using the bound BENCHMARK.json fixes:

  unresolved  the spread (quartile distance / median) of either side is
              wider than the bound and neither side wins every run;
  worse       the new median is worse than the base median by more than
              the bound;
  improved    the new side wins at least 9 of 10 run pairs (ties count for
              neither) and the medians differ by more than the base
              side's quartile distance;
  same        otherwise.

Runs pair by seed when both sides ran the same seeds, else in file order.
The end-to-end times run.py measures but does not gate (run.UNGATED) are
listed the same way, with `improved` or `same` only; per-layer metrics
(traced runs) are listed with their medians, no verdict. Each side's median
host steal heads the report. Exits 1 on any `worse`, on any run whose outputs were wrong, or when the
share of failed operations rose; 0 otherwise. Exits 2 without a verdict
when the runs differ in length (`seconds`), which sets how much each run
measures.
"""

import argparse
import json
import os
import statistics
import sys

from run import UNGATED

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def load_runs(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def group(runs, mode, field="metrics"):
    """{(workload, metric): [(seed, value), ...]} in file order."""
    out = {}
    for run in runs:
        if run["mode"] != mode:
            continue
        for name, metric in run.get(field, {}).items():
            out.setdefault((run["workload"], name), []).append(
                (run["seed"], metric["value"]))
    return out


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pairs(base, new):
    base_by_seed = dict(base)
    new_by_seed = dict(new)
    if len(base_by_seed) == len(base) and set(base_by_seed) == set(new_by_seed):
        return [(base_by_seed[s], new_by_seed[s]) for s in sorted(base_by_seed)]
    return list(zip([v for _, v in base], [v for _, v in new]))


def verdict(base, new, bound, higher_better):
    """Returns (verdict, detail) for one (workload, metric). Without a
    bound (an ungated metric) only `improved` can be told from `same`."""
    b = [v for _, v in base]
    n = [v for _, v in new]
    bq1, bmed, bq3 = quartiles(b)
    nq1, nmed, nq3 = quartiles(n)
    sign = 1.0 if higher_better else -1.0

    def better(x, y):  # x strictly better than y
        return sign * (x - y) > 0

    spread = max((bq3 - bq1) / abs(bmed) if bmed else 0.0,
                 (nq3 - nq1) / abs(nmed) if nmed else 0.0)
    new_wins_all = all(better(x, y) for x in n for y in b)
    base_wins_all = all(better(y, x) for x in n for y in b)
    worse_by = -sign * (nmed - bmed) / abs(bmed) if bmed else 0.0
    paired = pairs(base, new)
    wins = sum(1 for x, y in paired if better(y, x))
    detail = {
        "base": (bmed, bq1, bq3), "new": (nmed, nq1, nq3),
        "change": -worse_by, "spread": spread,
        "wins": wins, "pairs": len(paired),
    }
    if bound is not None:
        if spread > bound and not new_wins_all and not base_wins_all:
            return "unresolved", detail
        if worse_by > bound:
            return "worse", detail
    if paired and wins >= 0.9 * len(paired) and abs(nmed - bmed) > bq3 - bq1:
        return "improved", detail
    return "same", detail


def print_row(key, base, new, bound, higher_better):
    result, d = verdict(base, new, bound, higher_better)
    print("%-14s %-12s %12.6g [%7.4g, %7.4g] %12.6g [%7.4g, %7.4g] "
          "%+7.1f%% %2d/%-3d  %s (%sspread %.1f%%)" % (
              *key, *d["base"], *d["new"], 100 * d["change"], d["wins"],
              d["pairs"], result,
              "" if bound is None else "bound %.0f%%, " % (100 * bound),
              100 * d["spread"]))
    return result


def print_steal(base_runs, new_runs):
    """Host interference: on a shared host, stolen CPU time moves every
    timing, so sides that saw different steal do not compare."""
    medians = []
    for runs in (base_runs, new_runs):
        steal = [r["host"]["steal"] for r in runs
                 if r["host"].get("steal") is not None]
        medians.append(statistics.median(steal) if steal else None)
    if None in medians:
        return
    print("host steal (median share of CPU time): base %.1f%%, new %.1f%%%s\n"
          % (100 * medians[0], 100 * medians[1],
             "; sides saw different host interference, alternate their runs"
             if abs(medians[0] - medians[1]) > 0.02 else ""))


def failure_share(runs):
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    base_runs, new_runs = load_runs(args.base), load_runs(args.new)
    lengths = {r["seconds"] for r in base_runs + new_runs}
    if len(lengths) > 1:
        print("runs of different lengths (%s s) do not compare"
              % ", ".join("%g" % s for s in sorted(lengths)), file=sys.stderr)
        return 2
    base, new = group(base_runs, "plain"), group(new_runs, "plain")
    print_steal(base_runs, new_runs)

    workloads = [w["name"] for w in spec["workloads"]]
    regressions = 0
    print("%-14s %-12s %30s %30s %8s %6s  %s" % (
        "workload", "metric", "base median [q1, q3]", "new median [q1, q3]",
        "change", "wins", "verdict"))
    for workload in workloads:
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if key not in base or key not in new:
                print("%-14s %-12s missing on one side" % key)
                regressions += 1
                continue
            result = print_row(key, base[key], new[key], metric["bound"],
                               metric["better"] == "higher")
            regressions += result == "worse"

    base_info = group(base_runs, "plain", "ungated")
    new_info = group(new_runs, "plain", "ungated")
    print("\nmeasured but not gated (no bound, so only `improved` is told):")
    for workload in workloads:
        for name, (_, better) in UNGATED.items():
            key = (workload, name)
            if key in base_info and key in new_info:
                print_row(key, base_info[key], new_info[key], None,
                          better == "higher")

    base_layers, new_layers = group(base_runs, "trace"), group(new_runs, "trace")
    shared = [k for k in base_layers if k in new_layers]
    if shared:
        print("\nper-layer medians (traced runs, no verdict):")
        for key in shared:
            bmed = statistics.median(v for _, v in base_layers[key])
            nmed = statistics.median(v for _, v in new_layers[key])
            change = (nmed - bmed) / abs(bmed) * 100 if bmed else 0.0
            print("  %-14s %-24s %14.6g -> %14.6g  %+7.1f%%" % (
                *key, bmed, nmed, change))

    wrong = [r for r in new_runs if not r["correct"]]
    if wrong:
        print("\n%d new runs reported wrong outputs" % len(wrong))
    base_fail, new_fail = failure_share(base_runs), failure_share(new_runs)
    if new_fail > base_fail:
        print("\nfailed operations rose: %.3g -> %.3g of attempted"
              % (base_fail, new_fail))
    failed = regressions > 0 or bool(wrong) or new_fail > base_fail
    print("\n" + ("REGRESSION" if failed else "no regression"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
