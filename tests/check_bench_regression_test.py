#!/usr/bin/env python3
"""Tests for tools/check_bench_regression.py's gating rules.

Deterministic outputs of the virtual-time benches (run fingerprints,
sim_* metrics, violation counts) and counted cost.* metrics must fail
the diff on any machine; wall-clock slowdowns stay advisory below the
--gate-threads bar.

    python3 tests/check_bench_regression_test.py
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

CHECKER = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "tools",
    "check_bench_regression.py",
)

SIM_SCALE = {
    "run": {"git_sha": "0", "hardware_concurrency": 1},
    "trajectory_hash": "c3fbfee5508a0706",
    "sim_rounds_to_converge": 156,
    "sim_events_processed": 273639,
    "wall_elapsed_sec": 1.6,
}
CHAOS = {
    "run": {"git_sha": "0", "hardware_concurrency": 1},
    "campaign_hash": "fd1a0aae18c03852",
    "sim_chaos_violations": 0,
    "sim_chaos_reconverge_p99_us": 243000,
}
NET = {
    "run": {"git_sha": "0", "hardware_concurrency": 1},
    "msgs_per_sec": 1.0e6,
    "e2e_p99_us": 100.0,
    "recovery": {
        "reconnect_p99_us": 5000.0,
        "lease": {
            "drop_frac": 0.6,
            "sim_lease_frames_down": 400,
            "sim_lease_frames_dropped": 241,
            "sim_lease_expiries": 14,
            "sim_lease_fallback_enters": 8,
            "sim_lease_degraded_frac": 0.0675,
            "reclaim_us": 1000.0,
        },
    },
}
NED_MICRO = {
    "run": {"git_sha": "0", "hardware_concurrency": 1},
    "cases": [
        {"name": "parallel_iteration/4", "ns_per_iter": 1.0e5},
        {"name": "parallel_iteration/8x8/t2", "ns_per_iter": 1.0e5,
         "cost.par.barriers_per_iter": 4},
    ],
}


def with_cost(doc, value):
    """NED_MICRO with the 8x8/t2 row's barrier cost set to `value`, or
    removed when `value` is None."""
    out = json.loads(json.dumps(doc))
    row = out["cases"][1]
    if value is None:
        del row["cost.par.barriers_per_iter"]
    else:
        row["cost.par.barriers_per_iter"] = value
    return out


def with_lease(**counts):
    """NET with the nested recovery.lease counts overridden."""
    out = json.loads(json.dumps(NET))
    out["recovery"]["lease"].update(counts)
    return out


def with_threads(doc, threads):
    out = json.loads(json.dumps(doc))
    out["run"]["hardware_concurrency"] = threads
    return out


class CheckerGateTest(unittest.TestCase):
    def run_checker(self, fresh, threads=4, baseline=None):
        """Exit code of the checker diffing `fresh` (file name -> doc)
        against the three baselines above (or `baseline`)."""
        baseline = baseline or {
            "BENCH_sim_scale.json": SIM_SCALE,
            "BENCH_chaos.json": CHAOS,
            "BENCH_net_throughput.json": NET,
        }
        with tempfile.TemporaryDirectory() as tmp:
            base_dir = os.path.join(tmp, "baselines")
            fresh_dir = os.path.join(tmp, "fresh")
            os.mkdir(base_dir)
            os.mkdir(fresh_dir)
            for name, doc in baseline.items():
                with open(os.path.join(base_dir, name), "w") as f:
                    json.dump(doc, f)
            for name, doc in fresh.items():
                with open(os.path.join(fresh_dir, name), "w") as f:
                    json.dump(with_threads(doc, threads), f)
            return subprocess.run(
                [sys.executable, CHECKER, "--baseline-dir", base_dir,
                 "--fresh-dir", fresh_dir],
                stdout=subprocess.DEVNULL,
            ).returncode

    def test_identical_outputs_pass(self):
        self.assertEqual(
            self.run_checker({"BENCH_sim_scale.json": SIM_SCALE,
                              "BENCH_chaos.json": CHAOS}), 0)

    def test_changed_trajectory_hash_fails_at_4_threads(self):
        fresh = dict(SIM_SCALE, trajectory_hash="0000000000000001")
        self.assertEqual(self.run_checker({"BENCH_sim_scale.json": fresh}), 1)

    def test_changed_campaign_hash_fails_at_4_threads(self):
        fresh = dict(CHAOS, campaign_hash="fd1a0aae18c03853")
        self.assertEqual(self.run_checker({"BENCH_chaos.json": fresh}), 1)

    def test_missing_hash_fails(self):
        fresh = {k: v for k, v in SIM_SCALE.items() if k != "trajectory_hash"}
        self.assertEqual(self.run_checker({"BENCH_sim_scale.json": fresh}), 1)

    def test_sim_metric_drift_fails_at_4_threads(self):
        fresh = dict(SIM_SCALE, sim_rounds_to_converge=200)
        self.assertEqual(self.run_checker({"BENCH_sim_scale.json": fresh}), 1)

    def test_nested_lease_drift_fails_at_4_threads(self):
        # The lease drill runs on virtual time, so its sim_lease_* counts
        # gate even nested under recovery.lease and below 8 threads.
        self.assertEqual(
            self.run_checker({"BENCH_net_throughput.json": NET}), 0)
        for drift in ({"sim_lease_expiries": 20},
                      {"sim_lease_frames_dropped": 300},
                      {"sim_lease_degraded_frac": 0.09}):
            self.assertEqual(
                self.run_checker(
                    {"BENCH_net_throughput.json": with_lease(**drift)}),
                1, f"drift {drift}")

    def test_new_violation_fails_at_4_threads(self):
        fresh = dict(CHAOS, sim_chaos_violations=1)
        self.assertEqual(self.run_checker({"BENCH_chaos.json": fresh}), 1)

    def test_deterministic_change_fails_against_other_hardware(self):
        # Baseline from a 1-thread box, fresh from a 16-thread one: the
        # wall-clock gate is demoted, the deterministic one is not.
        fresh = dict(SIM_SCALE, trajectory_hash="0000000000000001")
        self.assertEqual(
            self.run_checker({"BENCH_sim_scale.json": fresh}, threads=16), 1)

    def test_slower_wall_clock_only_is_advisory_at_4_threads(self):
        fresh_net = dict(NET, msgs_per_sec=1.0e5, e2e_p99_us=1000.0)
        fresh_sim = dict(SIM_SCALE, wall_elapsed_sec=16.0)
        self.assertEqual(
            self.run_checker({"BENCH_net_throughput.json": fresh_net,
                              "BENCH_sim_scale.json": fresh_sim}), 0)

    def test_identical_cost_passes(self):
        self.assertEqual(
            self.run_checker({"BENCH_ned_micro.json": NED_MICRO},
                             baseline={"BENCH_ned_micro.json": NED_MICRO}),
            0)

    def test_changed_cost_fails_at_4_threads(self):
        for value in (10, 2):  # more barriers, and fewer: exact match only
            fresh = with_cost(NED_MICRO, value)
            self.assertEqual(
                self.run_checker({"BENCH_ned_micro.json": fresh},
                                 baseline={"BENCH_ned_micro.json": NED_MICRO}),
                1, f"cost {value}")

    def test_missing_cost_fails(self):
        fresh = with_cost(NED_MICRO, None)
        self.assertEqual(
            self.run_checker({"BENCH_ned_micro.json": fresh},
                             baseline={"BENCH_ned_micro.json": NED_MICRO}),
            1)

    def test_slower_wall_clock_fails_at_8_threads_on_same_hardware(self):
        baseline = {"BENCH_net_throughput.json": with_threads(NET, 8)}
        fresh_net = dict(NET, msgs_per_sec=1.0e5)
        self.assertEqual(
            self.run_checker({"BENCH_net_throughput.json": fresh_net},
                             threads=8, baseline=baseline), 1)


if __name__ == "__main__":
    unittest.main()
