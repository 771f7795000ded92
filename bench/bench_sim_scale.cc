// Virtual-time scale bench: the real control plane -- one inline
// AllocatorService plus N real EndpointAgents -- run to convergence at
// 10k endpoints inside a single process on sim::SimTransport.
//
// Reports rounds / virtual time to convergence, the per-endpoint
// update-message overhead (the Fig 5 metric, here at a scale the
// loopback benches cannot reach), the agent polls the harness ran, and
// the virtual-over-wall speedup that makes the exercise worthwhile. The
// bench runs the same seed twice and hard-fails on any trajectory
// divergence: determinism is an acceptance criterion, not a best effort.
//
// Every sim_* metric in BENCH_sim_scale.json is a deterministic
// function of (seed, config) -- identical on every machine -- so the
// regression checker holds them to a tight band.
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "bench_util.h"
#include "sim/control_plane_harness.h"

namespace {

using namespace ft;

struct RunResult {
  sim::ConvergeStats stats;
  double wall_sec = 0.0;
};

RunResult run_once(const sim::HarnessConfig& cfg) {
  const auto t0 = std::chrono::steady_clock::now();
  sim::ControlPlaneHarness h(cfg);
  RunResult r;
  r.stats = h.run_to_convergence();
  r.wall_sec = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  const auto endpoints =
      flags.int_flag("endpoints", 10'000, "real EndpointAgents to run");
  const auto flows_per = flags.int_flag("flows_per_endpoint", 2,
                                        "generated flowlets per endpoint");
  const auto seed = flags.int_flag("seed", 1, "harness seed");
  const std::string out = flags.string_flag(
      "out", "BENCH_sim_scale.json", "JSON results path");
  flags.done(
      "10k-endpoint virtual-time control plane: convergence, update "
      "overhead (Fig 5 scale), determinism gate.");

  sim::HarnessConfig cfg;
  cfg.num_endpoints = static_cast<int>(endpoints);
  cfg.flows_per_endpoint = static_cast<int>(flows_per);
  cfg.seed = static_cast<std::uint64_t>(seed);

  bench::banner("Virtual-time control plane at scale",
                "single process, real service + agents, Fig 5 metric");

  const RunResult a = run_once(cfg);
  const RunResult b = run_once(cfg);  // determinism gate

  if (!a.stats.converged || !b.stats.converged) {
    std::fprintf(stderr,
                 "FAIL: harness did not converge within %lld virtual us\n",
                 static_cast<long long>(cfg.max_virtual_us));
    return 1;
  }
  if (a.stats.trajectory_hash != b.stats.trajectory_hash ||
      a.stats.virtual_us != b.stats.virtual_us ||
      a.stats.updates_sent != b.stats.updates_sent) {
    std::fprintf(stderr,
                 "FAIL: same-seed runs diverged "
                 "(hash %016llx vs %016llx, virtual_us %lld vs %lld)\n",
                 static_cast<unsigned long long>(a.stats.trajectory_hash),
                 static_cast<unsigned long long>(b.stats.trajectory_hash),
                 static_cast<long long>(a.stats.virtual_us),
                 static_cast<long long>(b.stats.virtual_us));
    return 1;
  }

  const sim::ConvergeStats& st = b.stats;
  const double wall = std::min(a.wall_sec, b.wall_sec);
  const double virtual_sec = static_cast<double>(st.virtual_us) * 1e-6;
  const double updates_per_endpoint =
      static_cast<double>(st.updates_sent) /
      static_cast<double>(endpoints);

  bench::Table t({"endpoints", "flows", "rounds", "virtual_ms",
                  "upd/endpoint", "wall_s", "virt/wall"});
  t.add_row({bench::fmt("%lld", static_cast<long long>(endpoints)),
             bench::fmt("%lld",
                        static_cast<long long>(endpoints * flows_per)),
             bench::fmt("%llu", static_cast<unsigned long long>(st.rounds)),
             bench::fmt("%.1f", static_cast<double>(st.virtual_us) / 1e3),
             bench::fmt("%.2f", updates_per_endpoint),
             bench::fmt("%.2f", wall),
             bench::fmt("%.3f", virtual_sec / wall)});
  t.print();
  std::printf("trajectory hash %016llx (two runs identical)\n",
              static_cast<unsigned long long>(st.trajectory_hash));
  std::printf("agent polls %llu (%.0f per round, of %lld agents)\n",
              static_cast<unsigned long long>(st.agent_polls),
              static_cast<double>(st.agent_polls) /
                  static_cast<double>(st.rounds),
              static_cast<long long>(endpoints));

  bench::Json j;
  j.add_run_metadata();
  j.set("endpoints", endpoints);
  j.set("flows", endpoints * flows_per);
  j.set("seed", seed);
  j.set("deterministic", true);
  j.set("trajectory_hash", bench::fmt("%016llx",
                                      static_cast<unsigned long long>(
                                          st.trajectory_hash)));
  j.set("sim_rounds_to_converge", st.rounds);
  j.set("sim_virtual_to_converge_us", st.virtual_us);
  j.set("sim_updates_sent", st.updates_sent);
  j.set("sim_update_msgs_per_endpoint", updates_per_endpoint);
  j.set("sim_events_processed", st.events_processed);
  // The poll sweep skips agents with no news and no timer due; a return
  // to polling every agent shows here first.
  j.set("sim_agent_polls", st.agent_polls);
  j.set("virtual_over_wall_speedup", virtual_sec / wall);
  j.set("wall_elapsed_sec", wall);
  if (!j.write_file(out)) return 1;
  std::printf("wrote %s\n", out.c_str());
  return 0;
}
