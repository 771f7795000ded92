// The benchmark's own tests: tiny configurations of every workload, the
// output checkers against hand-made bad outputs, and same-seed determinism
// of the virtual-time outputs. The metric catalog (names, units, sections)
// is BENCHMARK.json's; run.py validates it and checks every run's output
// against it.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "checks.h"
#include "report.h"
#include "workloads.h"

namespace flowbench {
namespace {

TEST(Report, PercentileInterpolates) {
  EXPECT_DOUBLE_EQ(percentile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(percentile({3, 1, 2}, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4}, 1.0), 4.0);
}

// --- checkers against hand-made outputs -----------------------------------

std::vector<ft::LinkId> route(std::initializer_list<std::uint32_t> ls) {
  std::vector<ft::LinkId> r;
  for (const std::uint32_t l : ls) r.emplace_back(l);
  return r;
}

TEST(Checks, AllocationRejectsOverfilledLinkAndZeroRate) {
  ft::core::NumProblem p({10.0, 10.0});
  p.add_flow(route({0}), ft::core::Utility::log_utility());
  p.add_flow(route({0, 1}), ft::core::Utility::log_utility());
  EXPECT_TRUE(check_allocation(p, std::vector<double>{5.0, 5.0}).empty());
  EXPECT_EQ(check_allocation(p, std::vector<double>{6.0, 5.0}).size(), 1u);
  EXPECT_EQ(check_allocation(p, std::vector<double>{5.0, 0.0}).size(), 1u);
  EXPECT_EQ(check_allocation(p, std::vector<double>{5.0}).size(), 1u);
}

ft::sim::ConvergeStats good_plane() {
  ft::sim::ConvergeStats st;
  st.converged = true;
  st.updates_sent = 100;
  st.updates_received = 90;
  return st;
}

TEST(Checks, PlaneRejectsUnconvergedAndInconsistentRuns) {
  EXPECT_TRUE(check_plane(good_plane(), 20, 20).empty());
  ft::sim::ConvergeStats st = good_plane();
  st.converged = false;
  EXPECT_EQ(check_plane(st, 20, 20).size(), 1u);
  EXPECT_EQ(check_plane(good_plane(), 19, 20).size(), 1u);
  st = good_plane();
  st.updates_received = 101;
  EXPECT_EQ(check_plane(st, 20, 20).size(), 1u);
}

ft::transport::ExpResult good_fct() {
  ft::transport::ExpResult r;
  r.flows_started = 12;
  r.flows_completed = 9;
  r.flows_unfinished = 1;
  r.buckets[0] = {2.0, 1.2, 6};
  r.buckets[1] = {3.0, 1.5, 3};
  r.allocator_updates = 40;
  return r;
}

TEST(Checks, FctRejectsCountsThatDoNotAddUp) {
  EXPECT_TRUE(check_fct(good_fct(), 12, 10).empty());
  EXPECT_EQ(check_fct(good_fct(), 12, 11).size(), 1u);  // 9 + 1 != 11
  EXPECT_EQ(check_fct(good_fct(), 13, 10).size(), 1u);  // a start missing
  ft::transport::ExpResult r = good_fct();
  r.buckets[1].p50_norm_fct = 0.9;  // faster than an empty network
  EXPECT_EQ(check_fct(r, 12, 10).size(), 1u);
  r = good_fct();
  r.buckets[1].count = 2;  // buckets no longer hold every completion
  EXPECT_EQ(check_fct(r, 12, 10).size(), 1u);
  r = good_fct();
  r.allocator_updates = 0;
  EXPECT_EQ(check_fct(r, 12, 10).size(), 1u);
}

// --- tiny configurations of every workload ---------------------------------

FctWebConfig tiny_fct() {
  FctWebConfig c;
  c.experiments = 1;
  c.warmup = 200 * ft::kMicrosecond;
  c.window = 300 * ft::kMicrosecond;
  c.drain = 2 * ft::kMillisecond;
  return c;
}

SolveConfig tiny_solve(bool par) {
  SolveConfig c;
  c.racks = 4;
  c.servers_per_rack = 4;
  c.spines = 2;
  c.flows = 400;
  c.churn_per_round = 20;
  c.warmup_rounds = 3;
  c.timed_rounds = 30;
  c.segments = 2;
  if (par) c.par_blocks = 2;
  return c;
}

PlaneConfig tiny_plane() {
  PlaneConfig c;
  c.harness.num_endpoints = 48;
  c.harness.servers_per_rack = 8;
  c.harness.spines = 2;
  c.harness.stable_rounds = 3;
  c.cycles = 2;
  c.idle_rounds = 20;
  return c;
}

// Every workload measures these itself (main() adds peak_rss_mb).
void expect_sound(const WorkloadResult& r) {
  EXPECT_TRUE(r.check_errors.empty())
      << (r.check_errors.empty() ? "" : r.check_errors.front());
  EXPECT_GT(r.attempted, 0);
  for (const char* m : {"setup_s", "round_mean_us", "round_p90_us",
                        "round_p99_us", "flowlets_per_s",
                        "updates_per_flowlet"}) {
    ASSERT_TRUE(r.metrics.count(m)) << m;
    EXPECT_GT(r.metrics.at(m), 0.0) << m;
  }
  EXPECT_FALSE(r.pinning.empty());
  EXPECT_FALSE(r.backend.empty());
}

TEST(Workloads, TinyFctWebPassesItsChecks) {
  const WorkloadResult r = run_fct_web(tiny_fct(), {.seed = 3, .trace = true});
  expect_sound(r);
  EXPECT_GE(r.metrics.at("fct.p50_1pkt"), 1.0);
  EXPECT_GT(r.metrics.at("core.rounds"), 0.0);
}

TEST(Workloads, TinySolvePassesItsChecks) {
  for (const bool par : {false, true}) {
    const WorkloadResult r = run_solve(tiny_solve(par), {.seed = 5});
    expect_sound(r);
    EXPECT_EQ(r.attempted, 30);
    EXPECT_EQ(r.failed, 0);
    const WorkloadResult t =
        run_solve(tiny_solve(par), {.seed = 5, .trace = true});
    expect_sound(t);
    EXPECT_GT(t.metrics.at("topo.route_ns"), 0.0);
    EXPECT_GT(t.metrics.at("core.iter_p50_us"), 0.0);
    EXPECT_EQ(t.metrics.at("updates_per_flowlet"),
              r.metrics.at("updates_per_flowlet"));
    if (par) {
      EXPECT_GT(t.metrics.at("core.par.band_us"), 0.0);
    }
  }
}

TEST(Workloads, TinyPlanePassesItsChecks) {
  const WorkloadResult r =
      run_plane(tiny_plane(), {.seed = 7, .trace = true});
  expect_sound(r);
  EXPECT_EQ(r.failed, 0);
  EXPECT_GT(r.metrics.at("net.frames_out"), 0.0);
  EXPECT_GT(r.metrics.at("sim.converge_virtual_ms"), 0.0);
  EXPECT_LE(r.metrics.at("net.delivered_frac"), 1.0);
}

// --- same-seed determinism of the virtual-time outputs ---------------------

TEST(Determinism, FctWebSameSeedSameOutputs) {
  const WorkloadResult a = run_fct_web(tiny_fct(), {.seed = 11});
  const WorkloadResult b = run_fct_web(tiny_fct(), {.seed = 11});
  EXPECT_EQ(a.metrics.at("updates_per_flowlet"),
            b.metrics.at("updates_per_flowlet"));
  for (const char* k : {"fct_p99_1pkt", "fct_mean", "flows_started",
                        "allocator_updates"}) {
    EXPECT_EQ(a.facts.at(k), b.facts.at(k)) << k;
  }
  const WorkloadResult c = run_fct_web(tiny_fct(), {.seed = 12});
  EXPECT_NE(a.facts.at("allocator_updates"), c.facts.at("allocator_updates"));
}

TEST(Determinism, PlaneSameSeedSameOutputs) {
  const WorkloadResult a = run_plane(tiny_plane(), {.seed = 13});
  const WorkloadResult b = run_plane(tiny_plane(), {.seed = 13});
  EXPECT_EQ(a.metrics.at("updates_per_flowlet"),
            b.metrics.at("updates_per_flowlet"));
  for (const char* k : {"converge_virtual_ms", "cycle1.rounds_to_converge",
                        "updates_sent", "updates_received",
                        "trajectory_hash_lo32"}) {
    EXPECT_EQ(a.facts.at(k), b.facts.at(k)) << k;
  }
}

}  // namespace
}  // namespace flowbench
