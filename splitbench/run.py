#!/usr/bin/env python3
"""SplitFS simulation benchmark: one command for every workload and metric.

    python3 splitbench/run.py --workload <kv_ycsb|mixed_modes|crash_sweep> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the program from this checkout's src/ (CMake, into .bench_build/splitbench),
runs the workload once and prints, as the last stdout line, one JSON object with the
keys correct, attempted, failed and metrics. --trace 0 reports the end-to-end metrics;
--trace 1 records spans (written to .bench_out/) and reports the per-layer metrics.

Repeat mode, for setting and checking bounds:

    python3 splitbench/run.py --repeat 10 [--workload <name>] [--seed <first>] \
        [--seconds <s>] [--trace <0|1>]

runs each workload (or the one named) once per seed first..first+N-1 and prints the
median, quartiles and spread (interquartile range over median) of every metric.

Exits non-zero without printing a result when the checkout has no program sources,
the build fails, the program fails or its output does not match BENCHMARK.json.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "splitbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("kv_ycsb", "mixed_modes", "crash_sweep")
RUN_TIMEOUT_S = 175


def die(msg):
    print("splitbench: " + msg, file=sys.stderr)
    sys.exit(2)


def run_logged(cmd):
    """Runs a build step with its output on stderr; dies if it fails."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    sys.stderr.write(proc.stdout)
    if proc.returncode != 0:
        die("build step failed: " + " ".join(cmd))


def build():
    src = os.path.join(ROOT, "src")
    has_sources = os.path.isdir(src) and any(
        name.endswith(".cc") for _, _, names in os.walk(src) for name in names)
    if not has_sources:
        die("no program sources under %s: this checkout holds only the benchmark" % src)
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_logged(["cmake", "-S", HERE, "-B", BUILD_DIR,
                    "-DCMAKE_BUILD_TYPE=Release"] + generator)
    run_logged(["cmake", "--build", BUILD_DIR, "-j", "3"])
    return os.path.join(BUILD_DIR, "splitbench")


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, or None without the file."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_once(binary, workload, seed, seconds, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        cmd += ["--trace-out", os.path.join(OUT_DIR, "trace-%s-%d.json" % (workload, seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("%s seed %d did not finish within %d s" % (workload, seed, RUN_TIMEOUT_S))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        die("%s seed %d exited with code %d" % (workload, seed, proc.returncode))
    result = json.loads(lines[-1])
    names = declared_metrics(trace)
    if names is not None and list(result["metrics"]) != names:
        die("metrics printed by the program differ from BENCHMARK.json")
    return result


def repeat(binary, args):
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    summary = {}
    for wl in workloads:
        values = {}
        units = {}
        failed_share = set()
        for i in range(args.repeat):
            res = run_once(binary, wl, args.seed + i, args.seconds, args.trace)
            failed_share.add(res["failed"] / res["attempted"])
            if not res["correct"]:
                die("%s seed %d: output checks failed" % (wl, args.seed + i))
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        print("%s: %d runs, seeds %d..%d, failed share %s" % (
            wl, args.repeat, args.seed, args.seed + args.repeat - 1, sorted(failed_share)))
        print("  %-28s %14s %14s %14s %8s" % ("metric", "q1", "median", "q3", "spread"))
        summary[wl] = {}
        for name, v in values.items():
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            print("  %-28s %14.6g %14.6g %14.6g %8.4f  %s" % (name, q1, med, q3, spread,
                                                              units[name]))
            summary[wl][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
    print(json.dumps(summary))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0)
    args = parser.parse_args()
    if not args.repeat and not args.workload:
        die("--workload is required outside repeat mode")
    binary = build()
    if args.repeat:
        repeat(binary, args)
        return
    result = run_once(binary, args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
