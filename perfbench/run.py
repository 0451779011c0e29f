#!/usr/bin/env python3
"""Builds and runs the DPFS end-to-end benchmark (see README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--results DIR] [--setup-reps K]

Run from the repository root. The benchmark is compiled from ../src into
.bench_build/perfbench (RelWithDebInfo), then one workload runs against an
in-process cluster under .bench_build/work. Everything the binary prints is
relayed; the last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}. With --results DIR the
environment, the result and the full output are also saved as one JSON file
per run, the input of compare.py; runs that failed are saved too, so that
compare.py can count them. --trace 1 writes a Chrome trace to
.bench_build/traces/.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(OUT, "perfbench")
BUILD_TYPE = "RelWithDebInfo"
BUILD_TIMEOUT_S = 850
RUN_SLACK_S = 150


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: no DPFS sources at %s/src" % ROOT)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE] + generator,
                       check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs], check=True,
                   stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return os.path.join(BUILD, "dpfs_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", help="directory for a result-set file")
    parser.add_argument("--setup-reps", type=int, default=5)
    args = parser.parse_args()

    try:
        binary = build()
    except (subprocess.CalledProcessError,
            subprocess.TimeoutExpired) as error:
        sys.exit("run.py: build failed: %s" % error)

    work = os.path.join(OUT, "work")
    shutil.rmtree(work, ignore_errors=True)  # leftovers of a killed run
    traces = os.path.join(OUT, "traces")
    os.makedirs(traces, exist_ok=True)
    trace_file = os.path.join(
        traces, "%s-seed%d.json" % (args.workload, args.seed))
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--work-dir", work, "--setup-reps", str(args.setup_reps)]
    if args.trace:
        command += ["--trace-out", trace_file]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds + RUN_SLACK_S)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: benchmark timed out")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()

    lines = proc.stdout.strip().splitlines()
    if args.results:
        env = next((json.loads(line[4:]) for line in lines
                    if line.startswith("env ")),
                   {"workload": args.workload, "seed": args.seed})
        result = (json.loads(lines[-1])
                  if lines and lines[-1].startswith("{") else None)
        os.makedirs(args.results, exist_ok=True)
        name = "%s-trace%d-seed%d.json" % (args.workload, args.trace,
                                            args.seed)
        with open(os.path.join(args.results, name), "w") as out:
            json.dump({"env": env, "exit": proc.returncode, "result": result,
                       "trace_file": trace_file if args.trace else None,
                       "stdout": proc.stdout}, out, indent=1)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
