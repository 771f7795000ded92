// The four flowbench workloads. Each drives one public entry point of the
// system from a single process:
//
//   fct_web        transport::run_experiment (packet simulator + Flowtune)
//   solve_100k     core::Allocator, sequential backend
//   solve_par      core::Allocator, core::parallel_backend (8x8 grid)
//   plane_sim_10k  sim::ControlPlaneHarness (real service + 10k agents)
//
// Inputs come from the seed alone. Work is fixed by (seed, size), so
// every virtual-time output is exact for a seed; wall-clock metrics are
// timed from many samples of a repeated operation or from throughput over
// long calls. A traced pass (trace = true) adds the per-layer timers and
// reads the layers' stats and registries.
#pragma once

#include <cstdint>
#include <string>

#include "common/time.h"
#include "report.h"
#include "sim/control_plane_harness.h"

namespace flowbench {

struct RunOptions {
  std::uint64_t seed = 1;
  bool trace = false;
};

struct FctWebConfig {
  // Independent experiments per run, each on its own seed derived from
  // the run's seed: FCT, update and throughput figures pool over them.
  int experiments = 3;
  ft::Time warmup = 5 * ft::kMillisecond;
  ft::Time window = 4 * ft::kMillisecond;
  // Long enough for the largest Web flowlet (10 MB) to finish.
  ft::Time drain = 30 * ft::kMillisecond;
};

struct SolveConfig {
  std::int32_t racks = 64;
  std::int32_t servers_per_rack = 16;
  std::int32_t spines = 4;
  std::size_t flows = 100'000;
  std::size_t churn_per_round = 1'000;
  int warmup_rounds = 30;
  // Timed rounds in all, split evenly over `segments` fresh instances;
  // each instance's set-up is one setup_s sample.
  int timed_rounds = 1'000;
  int segments = 8;
  // 0 = the sequential backend; otherwise the parallel backend on a
  // par_blocks x par_blocks FlowBlock grid with two worker threads.
  std::int32_t par_blocks = 0;
};

struct PlaneConfig {
  ft::sim::HarnessConfig harness;  // defaults: 10k agents, 20k flowlets
  // Cold start to convergence, repeated on fresh harnesses, each on its
  // own seed derived from the run's.
  int cycles = 5;
  // Virtual rounds timed one by one after convergence, split evenly over
  // the cycles.
  int idle_rounds = 1'000;
};

[[nodiscard]] WorkloadResult run_fct_web(const FctWebConfig& cfg,
                                         const RunOptions& opt);
[[nodiscard]] WorkloadResult run_solve(const SolveConfig& cfg,
                                       const RunOptions& opt);
[[nodiscard]] WorkloadResult run_plane(const PlaneConfig& cfg,
                                       const RunOptions& opt);

}  // namespace flowbench
