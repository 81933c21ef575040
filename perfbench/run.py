#!/usr/bin/env python3
# Copyright 2026 The GraphScape Authors.
# Licensed under the Apache License, Version 2.0.
"""Builds and runs the GraphScape benchmark for one workload.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload build-ktruss --seed 1 \
        --seconds 20 --trace 0

Steps: configure and build perfbench/ (graphscape_core from src/, the
benchmark program and its harness self-test) into .bench_build/perfbench;
run the self-test; run the workload in its own process; check its result
line against BENCHMARK.json; print the context line and, last, the result
line {"correct", "attempted", "failed", "metrics"}.

--trace 0 prints every end_to_end metric of BENCHMARK.json. --trace 1
prints every per_layer metric; a layer metric that perfbench/metric_map.json
does not map to this workload is not exercised by it and reads 0. The spans
of a traced run go to .bench_build/traces/.

Exit status is 0 only when the build, the self-test and every operation
and output check of the run passed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
# The benchmark must finish within 180 s; leave room for the checks here.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def run_logged(cmd, timeout):
    """Runs cmd with its output on stderr; True on exit code 0."""
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout, check=False)
    except (OSError, subprocess.TimeoutExpired) as err:
        log(f"{cmd[0]} failed: {err}")
        return False
    return done.returncode == 0


def build():
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        if not run_logged(["cmake", "-S", HERE, "-B", BUILD_DIR,
                           "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S):
            return False
    return run_logged(["cmake", "--build", BUILD_DIR, "-j", "4"],
                      BUILD_TIMEOUT_S)


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def applicable_layers(metric_map, workload):
    names = set()
    for row in metric_map["layers"]:
        if workload in row["workloads"]:
            names.update(row["metrics"])
    return names


def check_metrics(result, expected, applicable, problems):
    """Returns the metrics of `result` completed and ordered as `expected`
    (a list of BENCHMARK.json entries); appends to `problems`."""
    got = result.get("metrics", {})
    wanted = {m["name"] for m in expected}
    for name in sorted(set(got) - wanted):
        problems.append(f"metric {name} is not in BENCHMARK.json")
    metrics = {}
    for entry in expected:
        name, unit = entry["name"], entry["unit"]
        if name in got:
            if got[name].get("unit") != unit:
                problems.append(f"metric {name}: unit "
                                f"{got[name].get('unit')}, BENCHMARK.json "
                                f"says {unit}")
            metrics[name] = {"value": got[name]["value"], "unit": unit}
        elif name in applicable:
            problems.append(f"metric {name} was not reported")
        else:
            metrics[name] = {"value": 0, "unit": unit}
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--request-seed", type=int,
                        help="seed of the serve-mixed request streams "
                             "(default: --seed)")
    args = parser.parse_args()

    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    metric_map = load_json(os.path.join(HERE, "metric_map.json"))
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workload not in workloads:
        log(f"unknown workload {args.workload}; "
            f"BENCHMARK.json has {workloads}")
        return 2

    if not build():
        log("build failed")
        return 1
    if not run_logged([os.path.join(BUILD_DIR, "perfbench_selftest"),
                       "--gtest_brief=1"], 120):
        log("harness self-test failed")
        return 1

    work_dir = os.path.join(ROOT, ".bench_build", "work",
                            f"{args.workload}-{os.getpid()}")
    trace_dir = os.path.join(ROOT, ".bench_build", "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [os.path.join(BUILD_DIR, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", work_dir,
           "--trace-out", os.path.join(
               trace_dir, f"{args.workload}-seed{args.seed}.json")]
    if args.request_seed is not None:
        cmd += ["--request-seed", str(args.request_seed)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, timeout=RUN_TIMEOUT_S,
                              check=False, text=True)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = [line for line in done.stdout.splitlines() if line.strip()]
    try:
        result = json.loads(lines[-1])
        context = json.loads(lines[-2]) if len(lines) > 1 else {}
    except (IndexError, ValueError):
        log(f"no result line from perfbench (exit {done.returncode})")
        return 1
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log(f"malformed result line: {lines[-1]}")
        return 1

    problems = []
    if args.trace:
        metrics = check_metrics(result, bench["per_layer"],
                                applicable_layers(metric_map, args.workload),
                                problems)
    else:
        metrics = check_metrics(result, bench["end_to_end"],
                                {m["name"] for m in bench["end_to_end"]},
                                problems)
        for name, metric in metrics.items():
            if not metric["value"] > 0:
                problems.append(f"end-to-end metric {name} reads "
                                f"{metric['value']}")
    for problem in problems:
        log(problem)
    failed = int(result["failed"]) + len(problems)
    attempted = int(result["attempted"]) + len(problems)
    correct = bool(result["correct"]) and not problems and done.returncode == 0
    print(json.dumps(context))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
