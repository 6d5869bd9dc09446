#!/usr/bin/env python3
"""Self-test of drfopt's benchmark, at the shortest run length.

Run from the root of the repository:

    python3 perfbench/selftest.py

Checks that
  - every workload runs, traced and untraced, with every verdict
    correct;
  - every metric BENCHMARK.json names is printed with its unit and a
    finite value, and no other metric is;
  - a deliberately wrong reference verdict makes the run fail;
  - `drfopt report --profile` renders the traced run's spans.
Exits 1 on the first failed check.
"""

import json
import math
import os
import subprocess
import sys

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

# Runnable by name, but not in BENCHMARK.json: their times were not
# steady enough from run to run to gate on.
UNLISTED_WORKLOADS = ["optimize-corpus", "portability-matrix"]

# The workload whose trace must show the refine rung's spans.
REFINE_WORKLOAD = "many-threads"


def check(cond, what):
    if not cond:
        print("FAIL: " + what)
        sys.exit(1)
    print("ok: " + what)


def run(workload, trace, *extra):
    cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace)] + list(extra)
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stderr


def metrics_match(result, expected):
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        return False
    for name, unit in expected.items():
        m = metrics[name]
        if set(m) != {"value", "unit"} or m["unit"] != unit:
            return False
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            return False
    return True


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    workloads = [w["name"] for w in bench["workloads"]]

    for w in workloads + UNLISTED_WORKLOADS:
        for trace, expected in ((0, end_to_end), (1, per_layer)):
            code, result, err = run(w, trace)
            label = "%s --trace %d" % (w, trace)
            check(code == 0 and result is not None, label + " exits 0 with a result" +
                  ("" if code == 0 else ": " + err[-500:]))
            check(set(result) == RESULT_KEYS, label + " prints exactly the result keys")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  label + " gets every verdict right")
            check(metrics_match(result, expected),
                  label + " prints every metric with its unit and a finite value")

    code, result, _ = run(workloads[0], 0, "--wrong-reference")
    check(code != 0 and result is not None and not result["correct"]
          and result["failed"] >= 1,
          "a wrong reference verdict fails the run")

    trace_file = os.path.join("perfbench", "out", REFINE_WORKLOAD + "-1.jsonl")
    build = subprocess.run(["dune", "build", "--root", ".", "./bin/drfopt.exe"],
                           env=dict(os.environ, DUNE_CACHE="disabled"),
                           capture_output=True, text=True)
    check(build.returncode == 0, "drfopt builds")
    report = subprocess.run([os.path.join("_build", "default", "bin", "drfopt.exe"),
                             "report", trace_file, "--profile"],
                            capture_output=True, text=True)
    check(report.returncode == 0 and "request" in report.stdout
          and "analysis.refine" in report.stdout,
          "drfopt report --profile renders the traced run's span tree")


if __name__ == "__main__":
    main()
