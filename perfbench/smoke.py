#!/usr/bin/env python3
"""Smoke test of the benchmark: a very short untraced and traced run of
every workload in BENCHMARK.json.

    python3 perfbench/smoke.py [--seconds 2]

Run from the repository root. Asserts that each run exits 0 with a verified
result, that every end-to-end (untraced) or per-layer (traced) metric is
present with its unit, that fail_frac is 0, that the traced run printed the
budget residual and the tracing overhead, and that its Chrome trace parses.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", str(seconds), "--trace", str(trace),
         "--setup-reps", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    return proc.returncode, proc.stdout.strip().splitlines()


def check(workload, trace, seconds, bench):
    errors = []
    code, lines = run(workload, trace, seconds)
    if code != 0 or not lines:
        return ["exit %d" % code]
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append("result keys %s" % sorted(result))
    if result.get("correct") is not True:
        errors.append("verification failed")
    if result.get("failed") != 0 or result.get("attempted", 0) < 1:
        errors.append("attempted %s failed %s"
                      % (result.get("attempted"), result.get("failed")))
    if not any(line.startswith("fail_frac=0.000000") for line in lines):
        errors.append("fail_frac is not 0")
    expected = bench["per_layer"] if trace else bench["end_to_end"]
    metrics = result.get("metrics", {})
    if sorted(metrics) != sorted(m["name"] for m in expected):
        errors.append("metric names differ: %s"
                      % sorted(set(metrics) ^ {m["name"] for m in expected}))
    for m in expected:
        got = metrics.get(m["name"], {})
        if got.get("unit") != m["unit"] or not isinstance(
                got.get("value"), (int, float)):
            errors.append("%s: %s" % (m["name"], got))
    if trace:
        for needle in ("budget.residual_us", "tracing overhead"):
            if not any(needle in line for line in lines):
                errors.append("no %r line" % needle)
        path = os.path.join(ROOT, ".bench_build", "traces",
                            "%s-seed7.json" % workload)
        with open(path) as f:
            chrome = json.load(f)
        tracks = {e.get("tid") for e in chrome["traceEvents"]
                  if e.get("ph") == "X"}
        if tracks != {1, 2}:
            errors.append("trace tracks %s, want ops and replay" % tracks)
        if set(chrome["otherData"]["per_layer"]) != set(metrics):
            errors.append("trace per_layer table differs from the result")
    return errors


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seconds", type=float, default=2)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = 0
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            errors = check(workload, trace, args.seconds, bench)
            failures += bool(errors)
            print("%-11s trace=%d %s" % (workload, trace,
                                         "; ".join(errors) or "ok"),
                  flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
