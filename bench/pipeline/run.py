#!/usr/bin/env python3
"""Runs the pipeline benchmark and prints every metric by name with its unit.

Builds bench_pipeline from source on first use, generates the workload's
inputs from the seed (cached per seed under bench_data/pipeline/), runs the
harness in its own process, checks its correctness report, and prints one
line per metric followed by one JSON result line:

  {"correct": true, "attempted": N, "failed": 0,
   "metrics": {"setup_s": {"value": 0.0702, "unit": "s"}, ...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list (and the Chrome trace is written to
bench_data/pipeline/out/<workload>.trace.json). Untraced runs also print,
and record, the UNGATED end-to-end times, outside the result line.

Usage:
  python3 bench/pipeline/run.py [--seed N]            # every workload, both modes
  python3 bench/pipeline/run.py --workload serve-read --seed 3 \\
      --trace 0 [--results runs.jsonl]
  HCD_BENCH_SMALL=1 python3 bench/pipeline/run.py --smoke

Every run lasts BENCHMARK.json's run_seconds (0.5 s under --smoke);
--seconds is accepted only when it states that same length.
--results appends one JSON record per run (metrics plus host facts, among
them the share of CPU time the hypervisor stole during the run, and the
commit), the input diff.py compares. Exits non-zero, printing no
result line, when the build, the generator or the harness fails; exits 1
after the result line when an output check failed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
HARNESS_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
SMOKE_SECONDS = 0.5

# Spans the traced run must contain, one per layer call the harness times.
REQUIRED_SPANS = [
    "bench.graph.ingest",
    "bench.core.pkc",
    "bench.hcd.phcd",
    "bench.hcd.freeze",
    "bench.search.preprocess",
    "bench.search.primary_a",
    "bench.search.rank",
    "bench.search.primary_b",
    "bench.hcd.save",
    "bench.hcd.map",
    "bench.engine.live_init",
    "bench.server.start",
    "bench.client.open_loop",
]
SERVER_PHASES = ["queue", "decode", "cache", "search", "encode"]
# Measured by every untraced run but not gated: on the shared 4-vCPU host
# the benchmark was sized on, their spread between runs of the same code
# reached 17-24% (README, "Bounds"), beyond what a bound can hold. They are
# printed and recorded for diff.py.
UNGATED = {"hcd_s": ("s", "lower"), "ready_s": ("s", "lower"),
           "p50_us": ("us", "lower"), "peak_qps": ("req/s", "higher")}


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as f:
        return json.load(f)


def build_dir():
    """build/bench/pipeline, or <$CARGO_TARGET_DIR>/pipeline when that
    generic build-output variable is set (relative to the repository root);
    the root .gitignore lists both."""
    target = os.environ.get("CARGO_TARGET_DIR")
    if target:
        return os.path.join(ROOT, target, "pipeline")
    return os.path.join(ROOT, "build", "bench", "pipeline")


def build_binary():
    """Configures (once) and builds the harness; returns its path."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("library sources not found under " + ROOT)
    out = build_dir()
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "bench_pipeline",
                  "-j", str(os.cpu_count() or 1)])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                env=env,
                                timeout=max(1, deadline - time.monotonic()))
        if result.returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))
    return os.path.join(out, "bench_pipeline")


def git_commit():
    # The ceiling keeps git from searching directories above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                env=env, capture_output=True, text=True,
                                timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def small():
    return bool(os.environ.get("HCD_BENCH_SMALL"))


def cpu_ticks():
    """The aggregate `cpu` counters of /proc/stat (user, nice, system, idle,
    iowait, irq, softirq, steal, ...), or None where there is none."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
    except OSError:
        return None
    if len(fields) < 9 or fields[0] != "cpu":
        return None
    return [int(x) for x in fields[1:9]]


def steal_share(before, after):
    """Share of the machine's CPU time a hypervisor took from its vCPUs
    between two cpu_ticks() readings. On a shared host this is the largest
    confounder of every timing, so each record keeps it."""
    if before is None or after is None:
        return None
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta)
    return delta[7] / total if total > 0 else None


def inputs(binary, data_dir, workload, seed, seconds):
    """Generates (or reuses) the inputs of (workload, seed, seconds). Only
    the newest seed of each workload is kept on disk."""
    name = "%s-s%d-t%g%s" % (workload, seed, seconds, "-small" if small() else "")
    path = os.path.join(data_dir, name)
    if os.path.exists(os.path.join(path, "traffic.bin")):
        return path
    os.makedirs(data_dir, exist_ok=True)
    for entry in os.listdir(data_dir):
        if entry.startswith(workload + "-s"):
            shutil.rmtree(os.path.join(data_dir, entry), ignore_errors=True)
    os.makedirs(path)
    cmd = [binary, "gen", "--workload", workload, "--seed", str(seed),
           "--seconds", "%g" % seconds, "--dir", path]
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            timeout=HARNESS_TIMEOUT_S)
    if result.returncode != 0:
        shutil.rmtree(path, ignore_errors=True)
        raise BenchError("input generation failed for " + workload)
    return path


def check_trace(path, workload):
    with open(path) as f:
        events = json.load(f).get("traceEvents") or []
    names = {e.get("name") for e in events}
    required = list(REQUIRED_SPANS)
    if workload == "serve-live":
        required.append("bench.engine.apply_batch")
    missing = [name for name in required if name not in names]
    if missing:
        raise BenchError("trace %s lacks spans %s" % (path, missing))
    return required


def derive_metrics(report, names):
    """Picks `names` out of the harness report; the server phases and the
    wire share come from the server's own stats document."""
    values = dict(report["values"])
    stats = report.get("server_stats")
    if stats:
        total = stats["total"]
        for phase in SERVER_PHASES:
            quantiles = total["phases_us"][phase]
            values["server.%s_p50_us" % phase] = quantiles["p50_us"]
            values["server.%s_p99_us" % phase] = quantiles["p99_us"]
        if "client.p50_us" in values:
            values["client.wire_p50_us"] = (
                values["client.p50_us"] - total["latency_us"]["p50_us"])
    missing = [name for name in names if name not in values]
    if missing:
        raise BenchError("harness did not report " + ", ".join(missing))
    return {name: values[name] for name in names}


def run_one(spec, binary, args, workload, seed, seconds, traced):
    data = inputs(binary, args.data_dir, workload, seed, seconds)
    cmd = [binary, "run", "--workload", workload, "--seed", str(seed),
           "--seconds", "%g" % seconds, "--dir", data]
    trace_path = None
    if traced:
        out_dir = os.path.join(args.data_dir, "out")
        os.makedirs(out_dir, exist_ok=True)
        trace_path = os.path.join(out_dir, workload + ".trace.json")
        cmd += ["--trace", trace_path]
    log("== %s seed %d, %s run" % (workload, seed, "traced" if traced else "untraced"))
    ticks = cpu_ticks()
    result = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True, timeout=HARNESS_TIMEOUT_S)
    steal = steal_share(ticks, cpu_ticks())
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        raise BenchError("bench_pipeline exited with %d" % result.returncode)
    report = json.loads(lines[-1])

    kind = "per_layer" if traced else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    metrics = derive_metrics(report, list(units))
    ungated = {} if traced else derive_metrics(report, list(UNGATED))
    spans = check_trace(trace_path, workload) if traced else []
    if traced and args.smoke:
        checker = os.path.join(ROOT, "scripts", "check_trace.py")
        cmd = [sys.executable, checker, trace_path]
        for span in spans:
            cmd += ["--require", span]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise BenchError("check_trace.py rejected " + trace_path)

    host = dict(report["host"], steal=steal)
    print("%s  seed %d  %s  (nproc %d, %s, %s, host steal %s)" % (
        workload, seed, "traced" if traced else "untraced", host["nproc"],
        host["compiler"], host["build_type"],
        "n/a" if steal is None else "%.1f%%" % (100 * steal)))
    for name, value in metrics.items():
        print("  %-26s %16.6f %s" % (name, value, units[name]))
    for name, value in ungated.items():
        print("  %-26s %16.6f %s (not gated)" % (name, value, UNGATED[name][0]))
    if report.get("live"):
        live = report["live"]
        print("  live batches: " + ", ".join(
            "%s %.6g" % (k, v) for k, v in live.items()))
    for error in report["errors"]:
        print("  ERROR: " + error)
    late = report["values"].get("client.late_p99_us")
    if late is not None and not traced:
        print("  generator lateness p99 %.3f us" % late)

    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "mode": "trace" if traced else "plain", "host": host,
        "commit": git_commit(), "correct": report["correct"],
        "attempted": report["attempted"], "failed": report["failed"],
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
        "ungated": {n: {"value": v, "unit": UNGATED[n][0]}
                    for n, v in ungated.items()},
    }
    if args.results:
        with open(args.results, "a") as f:
            f.write(json.dumps(record) + "\n")
    return record


def main():
    spec = load_spec()
    workload_names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=workload_names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="must equal BENCHMARK.json's run_seconds: run "
                        "length sets the reps, rounds and traffic, so it is "
                        "fixed for every commit compared")
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--results", help="append one JSON record per run")
    parser.add_argument("--binary", help="use this bench_pipeline, skip the build")
    parser.add_argument("--data-dir",
                        default=os.path.join(ROOT, "bench_data", "pipeline"))
    parser.add_argument("--smoke", action="store_true",
                        help="every workload, both modes, %g s each, traces "
                        "checked with scripts/check_trace.py" % SMOKE_SECONDS)
    args = parser.parse_args()
    seconds = SMOKE_SECONDS if args.smoke else spec["run_seconds"]
    if args.seconds is not None and args.seconds != seconds:
        log("run.py: --seconds %g differs from the fixed run length %g"
            % (args.seconds, seconds))
        return 2

    try:
        binary = args.binary or build_binary()
        workloads = [args.workload] if args.workload else workload_names
        modes = [bool(args.trace)] if args.trace is not None else [False, True]
        records = [run_one(spec, binary, args, w, args.seed, seconds, traced)
                   for w in workloads for traced in modes]
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as e:
        log("run.py: %s" % e)
        return 2

    correct = all(r["correct"] for r in records)
    single = len(records) == 1
    metrics = {}
    for r in records:
        for name, metric in r["metrics"].items():
            metrics[name if single else "%s/%s" % (r["workload"], name)] = metric
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
