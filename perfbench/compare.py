#!/usr/bin/env python3
"""Summarizes or compares benchmark result sets (directories of run.py
--results files; only untraced runs are read).

    python3 perfbench/compare.py SET             # spread of one set
    python3 perfbench/compare.py PARENT CHANGE   # verdict per metric

One row per workload x end-to-end metric of BENCHMARK.json, with medians and
quartiles (statistics.quantiles, n=4). Spread is the interquartile range as
a share of the median. A run failed when it exited non-zero, failed its
verification ("correct": false) or had a failed call ("failed" > 0).
Verdicts, pairing the i-th run of each side in seed order (runs that
printed no result are left out):
  failed runs        the change has a failed run in this workload; this
                     overrides every other verdict
  improved           the change wins >= 9/10 pairs (ties count for neither)
                     and the medians differ by more than the parent's IQR
  worse than bound   the change's median is worse than the parent's by more
                     than the metric's bound
  unresolved         either side's spread is wider than the bound, unless
                     every change run beats every parent run
  unchanged          otherwise
Exit status 1 on a failed run of the change or a metric worse than bound.
With one set: exit status 1 on a failed run or a spread wider than its
bound. The spread of setup_s is printed but not checked, because a set-up
time is allowed to vary from run to run; only its median is bounded.
"""
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load(directory):
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*-trace0-*.json"))):
        with open(path) as f:
            run = json.load(f)
        workload = run["env"]["workload"]
        runs.setdefault(workload, []).append(run)
    for workload in runs:
        runs[workload].sort(key=lambda run: run["env"]["seed"])
    return runs


def failed(run):
    result = run["result"] or {}
    return (run["exit"] != 0 or result.get("correct") is not True
            or result.get("failed") != 0)


def values(runs, metric):
    """The metric of every run that printed a result."""
    return [run["result"]["metrics"][metric]["value"] for run in runs
            if run["result"] and metric in run["result"]["metrics"]]


def stats(xs):
    if not xs:
        return float("nan"), float("nan"), float("nan"), float("inf")
    q1, q2, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else xs * 3
    median = statistics.median(xs)
    spread = (q3 - q1) / median if median else 0.0
    return median, q1, q3, spread


def environments(sets):
    for label, runs in sets:
        envs = {(r["env"].get("nproc"), r["env"].get("medium"),
                 r["env"].get("build_type"), r["env"].get("optimized"))
                for rs in runs.values() for r in rs if "nproc" in r["env"]}
        for nproc, medium, build, optimized in sorted(envs):
            flag = "" if optimized else "  ** NOT OPTIMIZED **"
            print("%s: nproc=%s medium=%s build=%s%s"
                  % (label, nproc, medium, build, flag))
        for workload in sorted(runs):
            seeds = [r["env"]["seed"] for r in runs[workload] if failed(r)]
            if seeds:
                print("%s: %s FAILED runs, seeds %s" % (label, workload, seeds))


def main(argv):
    if len(argv) not in (2, 3):
        sys.exit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = bench["end_to_end"]
    sets = [(os.path.basename(os.path.normpath(d)), load(d)) for d in argv[1:]]
    environments(sets)
    bad = False

    if len(sets) == 1:
        runs = sets[0][1]
        print("%-11s %-13s %4s %12s %12s %12s %7s %6s"
              % ("workload", "metric", "n", "median", "q1", "q3", "spread",
                 "bound"))
        for workload in sorted(runs):
            bad |= any(failed(run) for run in runs[workload])
            for m in metrics:
                xs = values(runs[workload], m["name"])
                median, q1, q3, spread = stats(xs)
                if m["name"] == "setup_s":
                    note = "  (spread not checked)"
                elif spread > m["bound"]:
                    note = "  OVER"
                    bad = True
                else:
                    note = ""
                print("%-11s %-13s %4d %12.6g %12.6g %12.6g %7.4f %6.3f%s"
                      % (workload, m["name"], len(xs), median, q1, q3, spread,
                         m["bound"], note))
        return 1 if bad else 0

    parent, change = sets[0][1], sets[1][1]
    print("%-11s %-13s %32s %32s %6s  %s"
          % ("workload", "metric", "parent median [q1, q3]",
             "change median [q1, q3]", "wins", "verdict"))
    for workload in sorted(set(parent) & set(change)):
        change_failures = sum(failed(run) for run in change[workload])
        for m in metrics:
            xs = values(parent[workload], m["name"])
            ys = values(change[workload], m["name"])
            sign = 1 if m["better"] == "higher" else -1
            pm, pq1, pq3, pspread = stats(xs)
            cm, cq1, cq3, cspread = stats(ys)
            pairs = list(zip(xs, ys))
            wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
            all_better = all(sign * (y - x) > 0 for x in xs for y in ys)
            if change_failures:
                verdict = "failed runs (%d/%d)" % (change_failures,
                                                   len(change[workload]))
                bad = True
            elif (pairs and wins >= 0.9 * len(pairs)
                    and abs(cm - pm) > pq3 - pq1):
                verdict = "improved"
            elif sign * (cm - pm) < -m["bound"] * abs(pm):
                verdict = "worse than bound"
                bad = True
            elif max(pspread, cspread) > m["bound"] and not all_better:
                verdict = "unresolved"
            else:
                verdict = "unchanged"
            print("%-11s %-13s %10.5g [%9.5g, %9.5g] %10.5g [%9.5g, %9.5g] "
                  "%3d/%-2d  %s"
                  % (workload, m["name"], pm, pq1, pq3, cm, cq1, cq3, wins,
                     len(pairs), verdict))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
