// Datacenter workload comparison: runs the packet-level simulator on the
// paper's topology with the Facebook Web workload and prints
// p99-normalized flow completion times for Flowtune vs DCTCP -- a
// miniature of the paper's headline result (Figure 8). In the simulated
// Flowtune run every host's EndpointAgent talks to the AllocatorService
// on the allocator node over simulated TCP through the same queues as
// the data. The example then replays a slice of the same workload's
// packet trace through the control plane on real sockets: an
// EndpointAgent whose flowlet detector observes the packets
// (observe_packet, no manual flowlet_start/end) against an
// AllocatorService over a Unix socket.
//
//   $ ./datacenter_sim            # defaults: load 0.6, 8 ms window
//   $ ./datacenter_sim 0.8 12     # load 0.8, 12 ms window
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "flowlet/detector.h"
#include "net/client.h"
#include "net/epoll_loop.h"
#include "net/server.h"
#include "transport/experiment.h"
#include "workload/traffic_gen.h"

namespace {

// Replays `horizon` of the workload's packet trace through the
// detector-driven agent: every transmitted packet is observed, flowlet
// starts/ends are detected and notified, rate updates come back.
void live_control_plane_replay(double load, ft::Time horizon) {
  using namespace ft;
  topo::ClosTopology clos((topo::ClosConfig()));
  core::Allocator alloc(clos.graph().capacities(), core::AllocatorConfig{});

  net::EpollLoop loop;
  net::ServerConfig scfg;
  scfg.unix_path = "/tmp/flowtune_dcsim.sock";
  scfg.iteration_period_us = 0;
  net::AllocatorService svc(loop, alloc, clos, scfg);

  // Detector floors sized for wall-clock replay: the scheduling jitter
  // of a paced replay loop is far coarser than simulated pacing, so the
  // adaptive gap gets a floor above it (still well under the scaled
  // think gaps).
  flowlet::DynamicGapConfig dcfg;
  dcfg.min_gap = 500 * kMicrosecond;
  dcfg.initial_gap = 500 * kMicrosecond;
  dcfg.max_gap = 20 * kMillisecond;
  net::EndpointAgent agent(
      net::AgentConfig{},
      std::make_unique<flowlet::DynamicGapDetector>(dcfg));
  if (!agent.connect_unix(scfg.unix_path)) {
    std::fprintf(stderr, "live replay: connect failed\n");
    return;
  }

  wl::TrafficConfig tcfg;
  tcfg.num_hosts = clos.num_hosts();
  tcfg.load = load;
  tcfg.workload = wl::Workload::kWeb;
  tcfg.seed = 11;
  wl::PacketTraceGenerator gen(tcfg);
  const wl::PacketTrace trace = gen.generate(horizon);

  // Pace the replay by the trace's own timestamps, stretched by `slow`
  // so the burst/think-gap structure lands well above wall-clock
  // jitter: the agent's detector stamps packets with real time, so
  // honouring ev.at is what lets it see the workload's flowlet
  // boundaries.
  const double slow = 20.0;
  std::uint64_t max_active = 0;
  const std::int64_t wall0 = net::EpollLoop::now_us();
  std::int64_t next_round_us = wall0;
  for (const wl::PacketEvent& ev : trace.packets) {
    const std::int64_t due_us =
        wall0 + static_cast<std::int64_t>(
                    slow * static_cast<double>(ev.at / kMicrosecond));
    while (net::EpollLoop::now_us() < due_us) {
      agent.poll();
      loop.run_once(0);
      const std::int64_t now = net::EpollLoop::now_us();
      if (now >= next_round_us) {
        svc.run_allocation_round();
        next_round_us = now + 200;
        max_active = std::max<std::uint64_t>(
            max_active, alloc.num_active_flowlets());
      }
    }
    agent.observe_packet(ev.flow_id,
                         static_cast<std::uint16_t>(ev.src_host),
                         static_cast<std::uint16_t>(ev.dst_host),
                         static_cast<std::uint32_t>(ev.bytes));
  }
  for (int i = 0; i < 20; ++i) {
    agent.poll();
    loop.run_once(0);
    svc.run_allocation_round();
  }

  const auto& as = agent.stats();
  const auto ss = svc.stats();
  std::printf(
      "\nLive control plane replay (web load %.1f, %zu packets, %zu "
      "ground-truth flowlets):\n"
      "  detector-driven flowlet starts: %llu, idle ends: %llu\n"
      "  service registrations: %llu starts / %llu ends, peak %llu "
      "active\n"
      "  rate updates applied at the endpoint: %llu\n",
      load, trace.packets.size(), trace.bursts,
      static_cast<unsigned long long>(as.starts_sent),
      static_cast<unsigned long long>(as.idle_ends),
      static_cast<unsigned long long>(ss.flowlet_starts),
      static_cast<unsigned long long>(ss.flowlet_ends),
      static_cast<unsigned long long>(max_active),
      static_cast<unsigned long long>(as.updates_received));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ft;
  using namespace ft::transport;

  const double load = argc > 1 ? std::atof(argv[1]) : 0.6;
  const double ms = argc > 2 ? std::atof(argv[2]) : 8.0;

  std::printf("Web workload at load %.1f on the paper's 144-server Clos "
              "(%.0f ms measured)...\n\n",
              load, ms);

  ExpResult results[2];
  const Scheme schemes[] = {Scheme::kFlowtune, Scheme::kDctcp};
  for (int i = 0; i < 2; ++i) {
    ExpConfig cfg;
    cfg.scheme = schemes[i];
    cfg.traffic.load = load;
    cfg.traffic.workload = wl::Workload::kWeb;
    cfg.duration = from_ms(ms);
    results[i] = run_experiment(cfg);
  }

  std::printf("%-22s %12s %12s\n", "p99 normalized FCT", "Flowtune",
              "DCTCP");
  for (std::int32_t b = 0; b < wl::kNumSizeBuckets; ++b) {
    std::printf("%-22s %12.2f %12.2f\n",
                wl::size_bucket_name(static_cast<wl::SizeBucket>(b)),
                results[0].buckets[b].p99_norm_fct,
                results[1].buckets[b].p99_norm_fct);
  }
  std::printf("\n%-22s %12.2f %12.2f\n", "p99 4-hop queueing (us)",
              results[0].p99_queue_4hop_us, results[1].p99_queue_4hop_us);
  std::printf("%-22s %12.2f %12.2f\n", "dropped Gbit/s",
              results[0].dropped_gbps, results[1].dropped_gbps);
  std::printf("%-22s %12zu %12zu\n", "flows completed",
              results[0].flows_completed, results[1].flows_completed);
  std::printf("\nFlowtune control overhead: %.3f%% of network capacity\n",
              100 * (results[0].to_allocator_gbps +
                     results[0].from_allocator_gbps) /
                  (144 * 10.0));

  live_control_plane_replay(load, from_ms(2));
  return 0;
}
