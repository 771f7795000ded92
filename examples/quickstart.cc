// Quickstart: the Flowtune control plane in ~90 lines.
//
// Builds the paper's 2-tier Clos topology, starts the allocator as a
// real service on a Unix-domain socket, and connects one endpoint agent
// that is never told about flowlets explicitly: it *observes
// transmitted packets* (EndpointAgent::observe_packet) and its flowlet
// detector registers starts -- and, after the idle gap, ends -- with
// the allocator automatically. Rate updates flow back over the socket.
//
//   $ ./quickstart
#include <cstdio>
#include <vector>

#include "core/flowtune.h"
#include "net/client.h"
#include "net/epoll_loop.h"
#include "net/server.h"
#include "topo/clos.h"

int main() {
  using namespace ft;

  // The paper's simulated datacenter: 9 racks x 16 servers, 4 spines,
  // 10 Gbit/s host links (topo::ClosConfig defaults).
  topo::ClosTopology clos((topo::ClosConfig()));

  // Allocator with the paper's parameters: gamma = 0.4, notification
  // threshold 0.01 (reserves 1% capacity headroom), F-NORM.
  core::AllocatorConfig config;
  config.gamma = 0.4;
  config.threshold = 0.01;
  core::Allocator allocator(clos.graph().capacities(), config);

  // The allocator as a service (epoll + Unix socket), rounds driven
  // manually below so the demo stays single-threaded.
  net::EpollLoop loop;
  net::ServerConfig scfg;
  scfg.unix_path = "/tmp/flowtune_quickstart.sock";
  scfg.iteration_period_us = 0;
  net::AllocatorService service(loop, allocator, clos, scfg);

  // The endpoint agent with a 50 ms idle-gap flowlet detector: no
  // flowlet_start calls anywhere -- observe_packet drives the whole
  // lifecycle.
  net::AgentConfig acfg;
  acfg.idle_gap_us = 50'000;
  net::EndpointAgent agent(acfg);
  if (!agent.connect_unix(scfg.unix_path)) {
    std::fprintf(stderr, "connect failed\n");
    return 1;
  }

  // Three flows: two share host 0's uplink; one is alone.
  struct Demo {
    std::uint32_t key;
    std::uint16_t src, dst;
  };
  const Demo demos[] = {{1, 0, 20}, {2, 0, 40}, {3, 17, 100}};

  // "Send" traffic: each observed packet feeds the detector, which
  // auto-registers the flowlet on its first packet; then run allocation
  // rounds (one every 10 us in deployment) and pump the socket.
  for (int iter = 0; iter < 50; ++iter) {
    for (const Demo& d : demos) {
      agent.observe_packet(d.key, d.src, d.dst, 1500);
    }
    agent.poll();
    loop.run_once(0);
    service.run_allocation_round();
    loop.run_once(0);
    agent.poll();
  }

  std::printf("detected flowlet starts sent: %llu (no explicit "
              "flowlet_start calls)\n\nsteady state:\n",
              static_cast<unsigned long long>(agent.stats().starts_sent));
  for (const Demo& d : demos) {
    std::printf("  flow %u (host %u -> host %u): %.3f Gbit/s\n", d.key,
                d.src, d.dst, agent.rate_bps(d.key) / 1e9);
  }
  std::printf(
      "\nFlows 1 and 2 share host 0's 10G uplink (~4.95G each after the "
      "1%% headroom);\nflow 3 gets the full ~9.9G.\n");

  // Silence: the agent's idle sweep ends every flowlet without any
  // flowlet_end call either.
  const std::int64_t deadline = net::EpollLoop::now_us() + 2'000'000;
  while (allocator.num_active_flowlets() > 0 &&
         net::EpollLoop::now_us() < deadline) {
    agent.poll();
    loop.run_once(1'000);
  }
  std::printf("\nafter %ld ms of silence: %zu active flowlets "
              "(idle ends sent: %llu)\n",
              static_cast<long>(acfg.idle_gap_us / 1000),
              allocator.num_active_flowlets(),
              static_cast<unsigned long long>(agent.stats().idle_ends));
  return 0;
}
