#!/usr/bin/env python3
"""The repo benchmark: builds flowbench from ../src and runs one workload.

One run (the last stdout line is the JSON result):

  python3 flowbench/run.py --workload gateway --seed 1 --seconds 20 --trace 0

Steadiness mode: runs every workload BENCHMARK.json lists (or the one
named) once per seed and prints each end-to-end metric's median, quartiles
and spread against its bound there:

  python3 flowbench/run.py --steadiness 10 [--workload gateway] [--seed 1]

Everything is built and cached inside the checkout: .bench_build/ (the
build), .bench_cache/ (generated traces), .bench_out/ (span files).
"""
import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "flowbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "flowbench")
WORKLOADS = ("gateway", "flow_churn", "paced_gateway")


def build():
    """Configures once and builds incrementally; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "runtime", "runtime.h")):
        sys.exit("flowbench: no program sources in %s/src; run from a "
                 "checkout of the repository" % ROOT)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            sys.exit("flowbench: cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        sys.exit("flowbench: build failed")


def flowbench_command(workload, seed, seconds, trace):
    return [BINARY, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--cache-dir", os.path.join(ROOT, ".bench_cache"),
            "--out-dir", os.path.join(ROOT, ".bench_out")]


def run_once(args):
    return subprocess.run(flowbench_command(args.workload, args.seed,
                                            args.seconds, args.trace),
                          cwd=ROOT).returncode


def steadiness(args):
    """Runs k seeds per workload; prints median, quartiles and spread."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = ([args.workload] if args.workload else
                 [w["name"] for w in spec["workloads"]])
    seeds = range(args.seed, args.seed + args.steadiness)
    status = 0
    for workload in workloads:
        values = {}
        for seed in seeds:
            out = subprocess.run(
                flowbench_command(workload, seed, args.seconds, 0),
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            ok = out.returncode == 0 and result.get("correct") is True
            print("%s seed %d: %s" % (workload, seed,
                                      "ok" if ok else "FAILED"), flush=True)
            if not ok:
                status = 1
                continue
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print("%s over %d seeds:" % (workload, len(seeds)))
        print("  %-26s %14s %14s %14s %8s %6s" %
              ("metric", "q1", "median", "q3", "spread", "bound"))
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            verdict = ""
            if bound is not None and name != "setup_s":
                verdict = "ok" if spread <= bound / 3 else "WIDE"
            print("  %-26s %14.6g %14.6g %14.6g %7.2f%% %6s %s" %
                  (name, q1, med, q3, 100 * spread,
                   "-" if bound is None else bound, verdict), flush=True)
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, metavar="K",
                        help="run K seeds per workload and report spreads")
    args = parser.parse_args()
    if args.steadiness is None and args.workload is None:
        parser.error("--workload is required")
    # On SIGTERM, raise SystemExit instead of dying outright, so that
    # subprocess.run kills and reaps the running build or benchmark.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    build()
    sys.exit(steadiness(args) if args.steadiness else run_once(args))


if __name__ == "__main__":
    main()
