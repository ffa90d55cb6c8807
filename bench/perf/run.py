#!/usr/bin/env python3
"""Run one hsbench workload from a source checkout and print its result.

Usage, from the repository root:

    python3 bench/perf/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

On first use it builds hsbench (Release) into .bench_build/hsbench. It runs
the workload, writes the full result document to .bench_build/results/, and
prints as the last line of stdout one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metrics are BENCHMARK.json's end_to_end metrics (--trace 0) or its
per_layer metrics (--trace 1), each as {"value": ..., "unit": ...}. Build
and benchmark logs go to stderr. When the sources, the build or the run
fail, it exits non-zero without printing a result.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
BUILD = os.path.join(ROOT, ".bench_build", "hsbench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("run.py: no hetsched sources under", ROOT)
        return None
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "bench", "perf"),
                     "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr,
                          timeout=BUILD_TIMEOUT_S).returncode != 0:
            return None
    compile_ = ["cmake", "--build", BUILD, "--target", "hsbench",
                "-j", "4"]
    if subprocess.run(compile_, stdout=sys.stderr,
                      timeout=BUILD_TIMEOUT_S).returncode != 0:
        return None
    return os.path.join(BUILD, "hsbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as stream:
        benchmark = json.load(stream)
    binary = build()
    if binary is None:
        log("run.py: build failed")
        return 1

    results = os.path.join(ROOT, ".bench_build", "results")
    os.makedirs(results, exist_ok=True)
    out = os.path.join(results, "%s-seed%d-trace%d.json" %
                       (args.workload, args.seed, args.trace))
    if os.path.exists(out):
        os.remove(out)
    command = [binary, "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--out", out,
               "--work-dir", os.path.join(ROOT, ".bench_build", "work",
                                          args.workload)]
    if args.trace:
        command.append("--trace")
    code = subprocess.run(command, stdout=sys.stderr,
                          timeout=RUN_TIMEOUT_S).returncode
    if code not in (0, 1) or not os.path.exists(out):
        log("run.py: hsbench exited with", code)
        return code or 1

    with open(out) as stream:
        result = json.load(stream)
    wanted = benchmark["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for spec in wanted:
        measured = result["metrics"].get(spec["name"])
        if measured is None or measured["unit"] != spec["unit"]:
            log("run.py: metric", spec["name"], "missing or not in",
                spec["unit"])
            return 1
        metrics[spec["name"]] = {"value": measured["value"],
                                 "unit": spec["unit"]}
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return code


if __name__ == "__main__":
    sys.exit(main())
