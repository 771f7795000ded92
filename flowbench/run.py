#!/usr/bin/env python3
"""Builds the flowbench runner from source and runs one workload.

    python3 flowbench/run.py --workload fct_web --seed 1 --seconds 15 --trace 0
    python3 flowbench/run.py --selftest

Run it from the root of a checkout. The build lives in .bench_build/flowbench
(CMake, Release); build output goes to stderr. The runner prints a summary
and one "flowbench.metric <name> <value>" line per measurement; this script
turns those into the result line, the last line of stdout, with the names,
units and sections of BENCHMARK.json: the end_to_end metrics with --trace 0,
the per_layer ones with --trace 1. A per-layer metric whose layer the
workload never calls reads 0; a missing end-to-end metric, or a measurement
BENCHMARK.json does not name, fails the run. Each run also leaves a detail
report (run metadata, sample counts, exact virtual-time outputs) and, with
--trace 1, a chrome://tracing span file under .bench_build/flowbench/reports/.
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "flowbench")
RUN_TIMEOUT_S = 170  # a run must end within 180 s; the build is not timed
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def load_catalog():
    """BENCHMARK.json, after checking every metric's name and unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seen = set()
    for section in ("end_to_end", "per_layer"):
        for m in bench[section]:
            if not NAME.match(m["name"]) or m["name"] in seen:
                raise ValueError("bad or repeated metric name %r" % m["name"])
            if not UNIT.match(m["unit"]):
                raise ValueError("bad unit %r of %s" % (m["unit"], m["name"]))
            seen.add(m["name"])
    return bench


def build(target):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "flowbench"), "-B",
                      BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", target, "-j",
                  jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("flowbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def result_line(stdout, bench, trace):
    """The result JSON from the runner's output, or None (with a message
    on stderr) when the output does not match the catalog."""
    result, measured = {}, {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[0] == "flowbench.result":
            result[parts[1]] = int(parts[2])
        elif len(parts) == 3 and parts[0] == "flowbench.metric":
            measured[parts[1]] = float(parts[2])
        else:
            print(line)
    known = {m["name"] for s in ("end_to_end", "per_layer") for m in bench[s]}
    errors = ["the runner measured %s, which BENCHMARK.json does not name" % k
              for k in sorted(set(measured) - known)]
    errors += ["no %s line from the runner" % k
               for k in ("correct", "attempted", "failed") if k not in result]
    metrics = {}
    for m in bench["per_layer" if trace else "end_to_end"]:
        value = measured.get(m["name"])
        if value is None and trace:
            value = 0.0  # the workload never calls this layer
        if value is None or not math.isfinite(value):
            errors.append("%s: %s" % (m["name"], "missing" if value is None
                                      else value))
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    if errors:
        for e in errors:
            print("flowbench: " + e, file=sys.stderr)
        return None
    return json.dumps({"correct": result["correct"] == 1,
                       "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def main():
    bench = load_catalog()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload",
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    env = dict(os.environ)
    # The run metadata asks git for the commit; keep git from searching
    # above the checkout.
    env["GIT_CEILING_DIRECTORIES"] = os.path.dirname(ROOT)

    if args.selftest:
        print("catalog: %d end-to-end and %d per-layer metrics, names and "
              "units valid" % (len(bench["end_to_end"]),
                               len(bench["per_layer"])))
        if not build("flowbench_test"):
            return 1
        return subprocess.run([os.path.join(BUILD_DIR, "flowbench_test")],
                              cwd=ROOT, env=env).returncode

    if not build("flowbench"):
        return 1
    reports = os.path.join(BUILD_DIR, "reports")
    os.makedirs(reports, exist_ok=True)
    stem = "%s-seed%d%s" % (args.workload, args.seed,
                            "-trace" if args.trace else "")
    cmd = [os.path.join(BUILD_DIR, "flowbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--report", os.path.join(reports, stem + ".json")]
    if args.trace:
        cmd += ["--trace-out", os.path.join(reports, stem + ".chrome.json")]
    try:
        out = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("flowbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    if out.returncode != 0:
        sys.stdout.write(out.stdout)
        return out.returncode
    line = result_line(out.stdout, bench, args.trace == 1)
    if line is None:
        return 1
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
