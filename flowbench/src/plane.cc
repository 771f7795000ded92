// plane_sim_10k: sim::ControlPlaneHarness at its defaults -- 10k real
// EndpointAgents, 20k flowlets, the inline AllocatorService, 1 ms rounds
// and polls, refresh_rounds 32 -- from a cold start to convergence. The
// only workload where net (frame codec, service ingest and fan-out, agent
// poll) does the work, over SimTransport.
//
// Each cycle runs its own seed, derived from the run's: it builds the
// harness (timed kSetupsPerCycle times: setup_s), runs its first rounds
// (timed: flowlets_per_s) and on to convergence, then times an idle window
// of virtual rounds (polls and anti-entropy only) round by round. How
// many rounds a cold start needs, and how many updates it sends, depend
// on the trajectory, so the run pools several trajectories rather than
// replaying one.
#include <memory>
#include <vector>

#include "checks.h"
#include "obs/metrics.h"
#include "workloads.h"

namespace flowbench {
namespace {

// flowlets_per_s covers this many rounds of every cold start: all 20k
// flowlets register in the first few, then NED converges under full
// load. A fixed count, not the whole convergence, because the rounds a
// cold start needs vary with the seed (130-280) far more than what a
// round costs.
constexpr std::int64_t kColdRounds = 100;

// Harness builds per cycle; each is one setup_s sample and only the last
// one runs. A build takes about 12 ms, so one sample is at the mercy of a
// single page-fault burst.
constexpr int kSetupsPerCycle = 4;

// Layer counters summed over the cycles, each read at convergence
// (before the idle window moves them).
struct LayerCounts {
  double frames_out = 0, bytes_out = 0, bytes_in = 0, updates_coalesced = 0;
  double recv_calls = 0, send_calls = 0;
  double tr_bytes = 0, tr_conns = 0;
  double emitted = 0, suppressed = 0, rounds = 0;
  double events = 0, updates_sent = 0, updates_received = 0;
  double converge_virtual_us = 0;
};

}  // namespace

WorkloadResult run_plane(const PlaneConfig& cfg, const RunOptions& opt) {
  WorkloadResult res;
  res.pinning = "simulating thread on one CPU, moved to the next every 50 "
                "rounds";
  res.backend = "inline AllocatorService, sequential allocator";
  ft::sim::HarnessConfig hc = cfg.harness;

  std::vector<double> setup_s, round_us;
  round_us.reserve(static_cast<std::size_t>(cfg.idle_rounds));
  const int idle_per_cycle = cfg.idle_rounds / cfg.cycles;
  double cold_s = 0.0, converge_s = 0.0, flows = 0.0;
  std::int64_t idle_ns = 0;
  std::uint64_t hash = 0;
  LayerCounts sum;
  // The registry outlives the harness whose allocator records into it.
  std::unique_ptr<ft::obs::MetricsRegistry> reg;
  std::unique_ptr<ft::sim::ControlPlaneHarness> h;
  const CpuRotation rotation;
  for (int c = 0; c < cfg.cycles; ++c) {
    rotation.pin(c);
    hc.seed = derive_seed(opt.seed, static_cast<std::uint64_t>(c));
    std::int64_t t0 = 0, t1 = 0;
    for (int k = 0; k < kSetupsPerCycle; ++k) {
      h.reset();
      reg = std::make_unique<ft::obs::MetricsRegistry>();
      hc.alloc.metrics = opt.trace ? reg.get() : nullptr;
      t0 = wall_ns();
      h = std::make_unique<ft::sim::ControlPlaneHarness>(hc);
      t1 = wall_ns();
      setup_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
    }
    constexpr std::int64_t kStep = CpuRotation::kRoundsPerCpu;
    for (std::int64_t r = 0; r < kColdRounds; r += kStep) {
      rotation.pin(c + static_cast<int>(r / kStep));
      h->run_for(kStep * hc.iteration_period_us);
    }
    const std::int64_t t2 = wall_ns();
    const ft::sim::ConvergeStats st = h->run_to_convergence();
    const std::int64_t t3 = wall_ns();
    cold_s += static_cast<double>(t2 - t1) * 1e-9;
    converge_s += static_cast<double>(t3 - t1) * 1e-9;
    if (opt.trace) {
      trace_span("setup", t0, t1);
      trace_span("cold_start_rounds", t1, t2);
      trace_span("run_to_convergence", t2, t3);
    }
    if (c == 0) res.facts["threads_while_pinned"] = thread_count();

    const std::size_t total = h->total_flows();
    for (const std::string& err : check_plane(st, h->flows_seen(), total)) {
      res.fail_check("cycle " + std::to_string(c) + ": " + err);
    }
    res.attempted += static_cast<std::int64_t>(total);
    res.failed += static_cast<std::int64_t>(
        st.converged ? total - h->flows_seen() : total);
    flows += static_cast<double>(total);
    hash = (hash << 1 | hash >> 63) ^ st.trajectory_hash;

    const ft::net::ServiceStats svc = h->service().stats();
    const ft::sim::SimTransportStats tr = h->transport().stats();
    const ft::core::AllocatorStats core = h->allocator().stats();
    sum.frames_out += static_cast<double>(svc.frames_out);
    sum.bytes_out += static_cast<double>(svc.bytes_out);
    sum.bytes_in += static_cast<double>(svc.bytes_in);
    sum.updates_coalesced += static_cast<double>(svc.updates_coalesced);
    sum.recv_calls += static_cast<double>(svc.recv_calls);
    sum.send_calls += static_cast<double>(svc.send_calls);
    sum.tr_bytes += static_cast<double>(tr.bytes_delivered);
    sum.tr_conns += static_cast<double>(tr.conns_opened);
    sum.emitted += static_cast<double>(core.updates_emitted);
    sum.suppressed += static_cast<double>(core.updates_suppressed);
    sum.rounds += static_cast<double>(reg->counter("core.iterations").value());
    sum.events += static_cast<double>(st.events_processed);
    sum.updates_sent += static_cast<double>(st.updates_sent);
    sum.updates_received += static_cast<double>(st.updates_received);
    sum.converge_virtual_us += static_cast<double>(st.virtual_us);
    res.facts["cycle" + std::to_string(c) + ".rounds_to_converge"] =
        static_cast<double>(st.rounds);

    // Idle window: polls and anti-entropy only, timed round by round.
    const std::int64_t idle0 = wall_ns();
    for (int i = 0; i < idle_per_cycle; ++i) {
      if (i % CpuRotation::kRoundsPerCpu == 0) {
        rotation.pin(c + i / CpuRotation::kRoundsPerCpu);
      }
      const std::int64_t r0 = wall_ns();
      h->run_for(hc.iteration_period_us);
      const std::int64_t r1 = wall_ns();
      round_us.push_back(static_cast<double>(r1 - r0) * 1e-3);
      if (opt.trace) trace_span("idle_round", r0, r1);
    }
    idle_ns += wall_ns() - idle0;
  }
  const double cycles = cfg.cycles;

  const auto n = static_cast<std::int64_t>(round_us.size());
  res.metrics["setup_s"] = median(setup_s);
  res.samples["setup_s"] = static_cast<std::int64_t>(setup_s.size());
  double idle_us = 0.0;
  for (const double u : round_us) idle_us += u;
  res.metrics["round_mean_us"] = idle_us / static_cast<double>(n);
  res.metrics["round_p90_us"] = percentile(round_us, 0.90);
  res.metrics["round_p99_us"] = percentile(round_us, 0.99);
  res.samples["round_mean_us"] = n;
  res.samples["round_p90_us"] = n;
  res.samples["round_p99_us"] = n;
  res.metrics["flowlets_per_s"] = flows / cold_s;
  res.samples["flowlets_per_s"] = cfg.cycles;
  res.metrics["updates_per_flowlet"] = sum.updates_sent / flows;
  res.facts["converge_virtual_ms"] = sum.converge_virtual_us / cycles / 1e3;
  res.facts["updates_sent"] = sum.updates_sent;
  res.facts["updates_received"] = sum.updates_received;
  res.facts["trajectory_hash_lo32"] =
      static_cast<double>(hash & 0xffffffffULL);

  if (opt.trace) {
    const double polls =
        static_cast<double>(round_us.size()) *
        static_cast<double>(hc.iteration_period_us) /
        static_cast<double>(hc.poll_period_us) *
        static_cast<double>(h->num_agents());
    res.metrics["core.rounds"] = sum.rounds / cycles;
    res.metrics["core.notify_frac"] =
        sum.emitted / (sum.emitted + sum.suppressed);
    res.metrics["sim.converge_virtual_ms"] =
        sum.converge_virtual_us / cycles / 1e3;
    res.metrics["sim.events"] = sum.events / cycles;
    res.metrics["sim.ns_per_event"] = converge_s * 1e9 / sum.events;
    res.metrics["sim.tr.bytes_delivered"] = sum.tr_bytes / cycles;
    res.metrics["sim.tr.conns_opened"] = sum.tr_conns / cycles;
    res.metrics["net.frames_out"] = sum.frames_out / cycles;
    res.metrics["net.bytes_out"] = sum.bytes_out / cycles;
    res.metrics["net.bytes_in"] = sum.bytes_in / cycles;
    res.metrics["net.updates_coalesced"] = sum.updates_coalesced / cycles;
    res.metrics["net.bytes_per_update"] = sum.bytes_out / sum.updates_sent;
    res.metrics["net.recv_calls"] = sum.recv_calls / flows;
    res.metrics["net.send_calls"] = sum.send_calls / flows;
    res.metrics["net.agent_poll_ns"] = static_cast<double>(idle_ns) / polls;
    res.metrics["net.delivered_frac"] =
        sum.updates_received / sum.updates_sent;
  }
  return res;
}

}  // namespace flowbench
