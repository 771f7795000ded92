#!/usr/bin/env python3
"""Diff fresh BENCH_*.json results against checked-in baselines.

Walks each baseline file under --baseline-dir, finds the matching fresh
file under --fresh-dir, and compares every numeric leaf whose key looks
like a performance metric:

  higher-is-better:  *per_sec, *_pps, speedup, precision, recall
  lower-is-better:   *_us, *_ns, ns_per_iter

The *_us rule also picks up the net bench's e2e_p50_us / e2e_p99_us --
the traced agent -> service -> agent update-path latency -- so a PR
that fattens the update path shows up here, not just in msgs/sec.

A metric regresses when it is worse than baseline by more than the
tolerance band (default 35%, generous because CI runners are noisy).
Config/count keys (flows, shards, iterations, ...) are ignored.

Deterministic outputs of the virtual-time benches are exact functions of
(seed, config), identical on every machine, so they gate everywhere:
sim_* metrics (5% band), *violations counts (zero tolerance) and
trajectory_hash / campaign_hash (compared as strings). cost.* metrics --
counted costs such as the parallel engine's barriers per iteration --
are exact functions of the code and its config, so they must equal the
baseline: a cost that falls fails too, until the baseline is
regenerated, so the checked-in numbers stay the program's. Any of these
differing from the baseline -- or missing from the fresh file -- exits
non-zero regardless of --gate-threads or the baseline's hardware.

Wall-clock metrics follow the same rule as the benches' own scaling
gates: with >= 8 hardware threads on the fresh run the script exits
non-zero on any regression; below that (shared CI runners, laptops)
regressions are reported as advisory and the exit code stays 0.
Baselines are expected to be regenerated when the reference hardware
changes -- the run metadata (git sha, hardware_concurrency) embedded in
each file says where a baseline came from.
"""

import argparse
import json
import os
import sys

HIGHER_SUFFIXES = ("per_sec", "_pps", "speedup", "precision", "recall")
LOWER_SUFFIXES = ("_us", "_ns", "ns_per_iter")
# stall_us / stall_every_rounds are the flight-demo's *injected* stall
# config, not measurements; sample_every is the tracing rate.
# reclaim_us (recovery drill: lease re-arm after drops stop, on virtual
# time) is about one heartbeat period by construction -- a protocol
# constant, not a speed -- so a 35% band is meaningless; the drill's
# tracked numbers are reconnect_p50_us/reconnect_p99_us/reconverge_us,
# which are dominated by the seeded backoff schedule and stay
# comparable across runs.
# virtual_over_wall_speedup divides deterministic virtual time by this
# machine's wall time, so it tracks runner speed, not the code; the
# deterministic sim_* metrics next to it are what the gate watches.
IGNORED_KEYS = {"hardware_concurrency", "git_sha", "stall_us",
                "stall_every_rounds", "sample_every", "reclaim_us",
                "virtual_over_wall_speedup"}

# Metrics from the virtual-time harness (bench_sim_scale, bench_chaos)
# are exact functions of (seed, config) -- identical on every machine --
# so they get a much tighter band than the wall-clock benches: any
# drift is a real behaviour change, not runner noise.
SIM_PREFIX = "sim_"
SIM_TOLERANCE = 0.05

# Chaos-campaign verdicts are correctness, not performance: any oracle
# violation is a failure, so *violations keys carry a zero band and
# gate even from a zero baseline (which the positive-baseline filter
# below would otherwise drop from tracking).
VIOLATION_SUFFIX = "violations"

# Fingerprints of a whole virtual-time run: any difference means the
# trajectory changed. Compared as strings, not as metrics.
HASH_KEYS = {"trajectory_hash", "campaign_hash"}

# Counted costs (barriers, allocations, syscalls per operation): exact
# functions of code and config, so they gate by equality on every runner.
COST_PREFIX = "cost."


def is_deterministic(key):
    """True for metrics that gate on every machine (see module doc)."""
    return (key.startswith(SIM_PREFIX) or key.startswith(COST_PREFIX)
            or key.endswith(VIOLATION_SUFFIX))


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def metric_direction(key):
    """Returns +1 (higher better), -1 (lower better) or 0 (ignore)."""
    if key in IGNORED_KEYS:
        return 0
    if key.endswith(VIOLATION_SUFFIX) or key.startswith(COST_PREFIX):
        return -1
    for suffix in HIGHER_SUFFIXES:
        if key.endswith(suffix):
            return +1
    for suffix in LOWER_SUFFIXES:
        if key.endswith(suffix):
            return -1
    if key.startswith(SIM_PREFIX):
        return -1  # rounds / messages / events to converge: lower wins
    return 0


def metric_tolerance(key, default):
    """Per-key band: deterministic sim_* metrics are held tight."""
    return SIM_TOLERANCE if key.startswith(SIM_PREFIX) else default


# Keys identifying which sweep configuration a list entry came from.
# List entries are matched by this signature, never by position: the
# baseline's {shards:4, alloc_threads:1} row must not be compared
# against a fresh {shards:4, alloc_threads:4} row just because both sit
# at index 4 (sweep shapes legitimately differ across machines).
CONFIG_KEYS = (
    "name",
    "detector",
    "shards",
    "alloc_threads",
    "clients",
    "flow_blocks",
    "nodes",
    "flows",
    "blocks",
    "load",
)


def element_label(value, index):
    if isinstance(value, dict):
        parts = [f"{k}={value[k]}" for k in CONFIG_KEYS if k in value]
        if parts:
            return "[" + ",".join(parts) + "]"
    return f"[{index}]"


def walk(node, path=""):
    """Yields (path, key, value) for every scalar leaf."""
    if isinstance(node, dict):
        for key, value in node.items():
            sub = f"{path}.{key}" if path else key
            if isinstance(value, (dict, list)):
                yield from walk(value, sub)
            else:
                yield sub, key, value
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from walk(value, f"{path}{element_label(value, i)}")


def compare_file(name, baseline, fresh, tolerance):
    """Returns (deterministic regressions, wall-clock regressions,
    improvements, skipped count)."""
    base_leaves = {p: (k, v) for p, k, v in walk(baseline)}
    fresh_leaves = {p: v for p, _, v in walk(fresh)}
    det_regressions, wall_regressions, improvements = [], [], []
    skipped = 0
    for path, (key, base_val) in sorted(base_leaves.items()):
        fresh_val = fresh_leaves.get(path)
        if key in HASH_KEYS:
            if str(fresh_val) != str(base_val):
                det_regressions.append(
                    f"  {name}:{path}: baseline {base_val} -> fresh "
                    f"{fresh_val} (run fingerprint changed)"
                )
            continue
        direction = metric_direction(key)
        if direction == 0 or not is_number(base_val):
            continue
        deterministic = is_deterministic(key)
        if deterministic and not is_number(fresh_val):
            det_regressions.append(
                f"  {name}:{path}: baseline {base_val:.6g} -> fresh "
                f"{fresh_val} (deterministic output missing)"
            )
            continue
        if key.startswith(COST_PREFIX):
            if fresh_val != base_val:
                det_regressions.append(
                    f"  {name}:{path}: baseline {base_val:.6g} -> fresh "
                    f"{fresh_val:.6g} (counted cost changed; must match "
                    "exactly -- regenerate the baseline if intended)"
                )
            continue
        if key.endswith(VIOLATION_SUFFIX):
            if fresh_val > base_val:
                det_regressions.append(
                    f"  {name}:{path}: baseline {base_val:.6g} -> fresh "
                    f"{fresh_val:.6g} (violation count increased; zero "
                    "tolerance)"
                )
            continue
        if base_val <= 0:
            continue
        if not is_number(fresh_val):
            skipped += 1
            continue
        ratio = fresh_val / base_val
        # Normalize so ratio < 1 always means "worse".
        goodness = ratio if direction > 0 else (1.0 / ratio if ratio else 0)
        line = (
            f"  {name}:{path}: baseline {base_val:.6g} -> fresh "
            f"{fresh_val:.6g} ({'+' if goodness >= 1 else ''}"
            f"{(goodness - 1) * 100:.1f}%)"
        )
        tol = metric_tolerance(key, tolerance)
        if goodness < 1.0 - tol:
            (det_regressions if deterministic else wall_regressions).append(
                line
            )
        elif goodness > 1.0 + tol:
            improvements.append(line)
    return det_regressions, wall_regressions, improvements, skipped


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline-dir", default="bench/baselines")
    ap.add_argument("--fresh-dir", default=".")
    ap.add_argument(
        "--tolerance",
        type=float,
        default=0.35,
        help="allowed fractional slowdown before a metric counts as a "
        "regression (default 0.35)",
    )
    ap.add_argument(
        "--gate-threads",
        type=int,
        default=8,
        help="hard-fail only when the fresh run saw at least this many "
        "hardware threads (default 8; below it the diff is advisory)",
    )
    ap.add_argument(
        "--strict",
        action="store_true",
        help="hard-fail on regression regardless of core count",
    )
    args = ap.parse_args()

    if not os.path.isdir(args.baseline_dir):
        print(f"no baseline dir {args.baseline_dir}; nothing to diff")
        return 0

    det_regressions, wall_regressions, all_improvements = [], [], []
    fresh_threads = 0
    baseline_threads = 0
    compared = 0
    for fname in sorted(os.listdir(args.baseline_dir)):
        if not (fname.startswith("BENCH_") and fname.endswith(".json")):
            continue
        fresh_path = os.path.join(args.fresh_dir, fname)
        if not os.path.exists(fresh_path):
            print(f"  {fname}: no fresh result; skipped")
            continue
        with open(os.path.join(args.baseline_dir, fname)) as f:
            baseline = json.load(f)
        with open(fresh_path) as f:
            fresh = json.load(f)
        compared += 1
        fresh_threads = max(
            fresh_threads,
            fresh.get("hardware_concurrency", 0),
            fresh.get("run", {}).get("hardware_concurrency", 0),
        )
        baseline_threads = max(
            baseline_threads,
            baseline.get("hardware_concurrency", 0),
            baseline.get("run", {}).get("hardware_concurrency", 0),
        )
        dets, regs, imps, skipped = compare_file(
            fname, baseline, fresh, args.tolerance
        )
        det_regressions += dets
        wall_regressions += regs
        all_improvements += imps
        print(
            f"  {fname}: {len(dets)} deterministic change(s), "
            f"{len(regs)} wall-clock regression(s), "
            f"{len(imps)} improvement(s), {skipped} metric(s) skipped"
        )

    if all_improvements:
        print("\nimprovements beyond the tolerance band:")
        print("\n".join(all_improvements))
    if wall_regressions:
        print("\nwall-clock regressions beyond the tolerance band:")
        print("\n".join(wall_regressions))
    if det_regressions:
        print("\ndeterministic outputs differing from the baseline:")
        print("\n".join(det_regressions))
        print(
            f"\nFAIL: {len(det_regressions)} deterministic output(s) "
            "changed; these gate on every machine"
        )
        return 1

    # Absolute timings only gate against baselines from the same class of
    # machine: a >= 8-thread runner diffing against a baseline recorded
    # on different hardware would fail on clock differences, not code.
    # --strict overrides (for a runner that knows its baselines match).
    same_hardware = baseline_threads == fresh_threads
    if not same_hardware and fresh_threads >= args.gate_threads:
        print(
            f"\nNOTE: baseline hardware ({baseline_threads} threads) != "
            f"fresh ({fresh_threads}); gate demoted to advisory -- "
            "regenerate bench/baselines/ on this machine to enforce"
        )
    gated = args.strict or (
        fresh_threads >= args.gate_threads and same_hardware
    )
    if wall_regressions and gated:
        print(
            f"\nFAIL: {len(wall_regressions)} regression(s) at "
            f"{fresh_threads} hardware threads (gate >= "
            f"{args.gate_threads})"
        )
        return 1
    if wall_regressions:
        reason = (
            f"only {fresh_threads} hardware threads "
            f"(< {args.gate_threads})"
            if fresh_threads < args.gate_threads
            else "baseline recorded on different hardware"
        )
        print(
            f"\nADVISORY: {len(wall_regressions)} regression(s) "
            f"({reason}); not failing the build"
        )
    elif compared:
        print("\nPASS: no regressions beyond the tolerance band")
    return 0


if __name__ == "__main__":
    sys.exit(main())
