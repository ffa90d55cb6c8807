#!/usr/bin/env python3
"""Smoke test for hsbench (ctest bench.perf_quick).

Runs every hsbench workload with --quick, untraced and traced (sweep-rerun
and serve-zipf too, which BENCHMARK.json leaves out of the regression
gate), and asserts for each run:
  - exit 0, correct, no failed operation;
  - for the workloads BENCHMARK.json names: every end_to_end metric
    (untraced) or per_layer metric (traced) is present, finite and in the
    unit BENCHMARK.json gives it;
  - the outputs digest is the same untraced and traced;
  - traced: trace-<workload>.json parses, every group (pass, probe sample
    or request) has exactly one root, and every child lies inside its
    parent.
"""

import argparse
import json
import math
import os
import subprocess
import sys

# Chrome trace timestamps are rounded microseconds.
SLACK_US = 0.01

# Every workload hsbench runs (main.cpp's table).
WORKLOADS = ("sweep-explore", "sweep-rerun", "faults-storm", "serve-zipf")


def check_trace(path):
    with open(path) as stream:
        events = json.load(stream)["traceEvents"]
    by_id = {event["args"]["id"]: event for event in events}
    roots = {}
    for event in events:
        args = event["args"]
        if args["parent"] == 0:
            roots[args["group"]] = roots.get(args["group"], 0) + 1
            continue
        parent = by_id.get(args["parent"])
        assert parent is not None, "span %d has no parent" % args["id"]
        assert parent["args"]["group"] == args["group"], "group mismatch"
        assert event["ts"] >= parent["ts"] - SLACK_US and \
            event["ts"] + event["dur"] <= \
            parent["ts"] + parent["dur"] + SLACK_US, \
            "span %s escapes %s" % (event["name"], parent["name"])
    groups = {event["args"]["group"] for event in events}
    assert groups and all(roots.get(group) == 1 for group in groups), \
        "a group without exactly one root"
    return len(events)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--hsbench", required=True)
    parser.add_argument("--benchmark", required=True)
    parser.add_argument("--work-dir", required=True)
    args = parser.parse_args()
    with open(args.benchmark) as stream:
        benchmark = json.load(stream)
    gated = {entry["name"] for entry in benchmark["workloads"]}
    assert gated <= set(WORKLOADS), "BENCHMARK.json names an unknown workload"

    for workload in WORKLOADS:
        digests = set()
        for traced in (False, True):
            work = os.path.join(args.work_dir, workload)
            out = os.path.join(work, "trace%d.json" % traced)
            command = [args.hsbench, "--workload", workload, "--quick",
                       "--out", out, "--work-dir", work]
            if traced:
                command.append("--trace")
            code = subprocess.run(command, stdout=subprocess.DEVNULL).returncode
            assert code == 0, "%s exited %d" % (" ".join(command), code)
            with open(out) as stream:
                result = json.load(stream)
            assert result["correct"] and result["failed"] == 0, workload
            digests.add(result["outputs_digest"])
            wanted = benchmark["per_layer" if traced else "end_to_end"]
            if workload not in gated:
                wanted = []
            for spec in wanted:
                metric = result["metrics"].get(spec["name"])
                assert metric is not None, "%s: no %s" % (workload,
                                                          spec["name"])
                assert metric["unit"] == spec["unit"], spec["name"]
                assert math.isfinite(metric["value"]), spec["name"]
            if traced:
                spans = check_trace(os.path.join(
                    work, "trace-%s.json" % workload))
                print("%s: %d spans" % (workload, spans))
        assert len(digests) == 1, "%s: digest differs when traced" % workload
        print("%s: ok" % workload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
