#!/usr/bin/env python3
"""Seed sweep: every workload over ten seeds, twice, with the spreads gated.

    python3 flowbench/sweep.py

For each workload in BENCHMARK.json it runs seeds 1-10 (set A), then the
same seeds again (set B), and for every end-to-end metric prints:

  median       the median of set A
  seed A, B    the spread across seeds within each set: (Q3 - Q1) / median,
               with the quartiles of statistics.quantiles(n=4)
  run          the run-to-run spread: the median over seeds of
               |a - b| / ((a + b) / 2) for the two runs of one seed
  shift        how much worse set B's median is than set A's, as a share
               of set A's (negative when B is better)
  bound        the metric's bound from BENCHMARK.json

Virtual-time metrics repeat exactly for one seed, so their run spread and
shift read 0; a change that only perturbs the trajectory moves them the
way a new seed would, which is what the seed columns show. The sweep fails
(exit 1) when a run is incorrect or has failures, or when any spread or
shift of any metric, setup_s included, exceeds the bound; "wide" marks a
spread above a third of the bound. The raw values go to
.bench_build/flowbench/sweep.json.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)
SETS = ("A", "B")


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit("run failed: " + " ".join(cmd))
    res = json.loads(lines[-1])
    return res, {k: v["value"] for k, v in res["metrics"].items()}


def seed_spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]

    summary = {}
    ok = True
    for w in [x["name"] for x in bench["workloads"]]:
        runs = {}
        bad = []
        for name in SETS:
            runs[name] = []
            for s in SEEDS:
                res, m = run_once(w, s, seconds)
                runs[name].append(m)
                if not res["correct"] or res["failed"]:
                    bad.append((name, s))
                print("  %s set %s seed %d: %s" % (w, name, s, json.dumps(m)),
                      flush=True)
        ok = ok and not bad
        print("%s: seeds %d-%d, sets %s%s" % (
            w, SEEDS[0], SEEDS[-1], "+".join(SETS),
            ", CHECKS FAILED on %s" % bad if bad else ""))
        print("  %-20s %13s %8s %8s %8s %8s %6s" % (
            "metric", "median", "seed A", "seed B", "run", "shift", "bound"))
        rows = {}
        for m in metrics:
            name, bound = m["name"], m["bound"]
            a = [r[name] for r in runs["A"]]
            b = [r[name] for r in runs["B"]]
            shift = statistics.median(b) / statistics.median(a) - 1.0
            if m["better"] == "higher":
                shift = -shift
            row = {"median": statistics.median(a),
                   "seed_spread_a": seed_spread(a),
                   "seed_spread_b": seed_spread(b),
                   "run_spread": statistics.median(
                       abs(x - y) / ((x + y) / 2) for x, y in zip(a, b)),
                   "shift": shift, "bound": bound}
            rows[name] = row
            spreads = (row["seed_spread_a"], row["seed_spread_b"],
                       row["run_spread"], row["shift"])
            over = max(spreads) > bound
            ok = ok and not over
            print("  %-20s %13.6g %7.2f%% %7.2f%% %7.2f%% %7.2f%% %5.0f%%%s" % (
                name, row["median"], *(100 * x for x in spreads), 100 * bound,
                "  OVER" if over else
                "  wide" if max(spreads) > bound / 3 else ""), flush=True)
        summary[w] = {"seeds": list(SEEDS), "runs": runs, "metrics": rows,
                      "failed": bad}

    out = os.path.join(ROOT, ".bench_build", "flowbench", "sweep.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as f:
        json.dump(summary, f, indent=1)
    print("sweep written to %s; %s" % (out, "PASS" if ok else "FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
