// ControlPlaneHarness: the real control plane -- one AllocatorService
// and N real EndpointAgents -- in a single process on virtual time.
//
// Nothing here is a mock: the service is the same AllocatorService the
// daemon runs (its default single shard, on the loop that also runs the
// allocation rounds on a timer, through the same event handlers a
// sharded daemon runs), the agents are the same EndpointAgent the
// endpoints run (auto-reconnect, leases, heartbeats and all), and the
// wire between them is the same
// length-prefixed frame stream -- only the transport underneath is
// sim::SimTransport, so ten thousand endpoints converge in seconds of
// wall clock and every run with the same seed replays bit-identically.
//
// Flowlet churn comes from the wl:: Poisson generator: arrivals are
// mapped onto their source host's agent and registered through the
// real flowlet_start batching path at their generated virtual times,
// staggered behind the agents' connection ramp.
//
// Agents are polled by one periodic sweep in index order, the
// virtual-time stand-in for each endpoint's poll loop. The sweep skips
// an agent whose poll would change nothing: its stream is not readable
// (SimTransport raises a per-agent flag when an unwatched stream turns
// readable, without an event) and EndpointAgent::next_poll_us() lies in
// the future. Every call into an agent refreshes that deadline and the
// flag's binding to the agent's current handle, so trajectories are
// bit-identical to polling every agent, and an idle round costs what
// changed rather than the fleet size. Outside code sees agents const
// only: a call the harness did not make could move a deadline.
//
// The harness doubles as a fault rig: restart_service() tears the
// service down and rebinds the same port (agents replay their flowlets
// on reconnect), and every wire fault -- reset storm, frame drops,
// black hole, one-way partitions -- is injected straight into
// transport(), the one fault layer (sim/sim_transport.h).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/allocator.h"
#include "net/client.h"
#include "net/server.h"
#include "sim/event_queue.h"
#include "sim/sim_proxy.h"
#include "sim/sim_transport.h"
#include "topo/clos.h"

namespace ft::sim {

struct HarnessConfig {
  int num_endpoints = 10'000;
  // Mean concurrent flowlets per endpoint; the generator's arrival
  // count is num_endpoints * flows_per_endpoint.
  int flows_per_endpoint = 2;
  // Topology auto-sizing: racks = ceil(num_endpoints / servers_per_rack).
  int servers_per_rack = 40;
  int spines = 4;
  double host_link_bps = 10e9;
  double fabric_link_bps = 40e9;
  // Allocation round + agent poll cadence (virtual microseconds).
  std::int64_t iteration_period_us = 1'000;
  std::int64_t poll_period_us = 1'000;
  // Agent dials spread uniformly across this window from t=0.
  std::int64_t connect_spread_us = 2'000;
  // Liveness plumbing (0 = off, the bare control plane).
  std::int64_t heartbeat_period_us = 0;
  std::int64_t rate_lease_us = 0;
  std::int64_t peer_timeout_us = 0;
  std::int64_t agent_heartbeat_period_us = 0;
  std::int64_t agent_peer_timeout_us = 0;
  // Endpoint link shaping (every agent<->service stream).
  SimLinkParams link;
  std::uint64_t seed = 1;
  // Converged = every flow saw >= 1 rate update and this many
  // consecutive rounds emitted none.
  int stable_rounds = 5;
  // Safety horizon for run_to_convergence (virtual microseconds).
  std::int64_t max_virtual_us = 30'000'000;
  // VIP mode: agents dial a SimProxy in front of the service instead
  // of the service itself. restart_service() then models a warm
  // restart behind a load balancer -- the agents' sockets never drop,
  // which is exactly the topology stale-rate bugs need (see
  // sim/sim_proxy.h).
  bool use_vip_proxy = false;
  std::int64_t vip_redial_delay_us = 1'000;
  // Mutation hooks, plumbed to every agent's AgentConfig. All default
  // to the hardened behavior; the chaos suite flips them one at a time
  // to prove each invariant oracle catches its matching bug.
  bool agent_epoch_filtering = true;
  bool agent_lease_enforcement = true;
  bool agent_leak_fds = false;
  // Rate anti-entropy is ON by default here (unlike the bare core
  // allocator): the harness's whole point is a lossy transport under
  // fault schedules, where a dropped rate update whose flow then stays
  // inside the notification threshold would otherwise leave an agent
  // holding a stale rate forever (the chaos campaign found exactly
  // this: restart + one-way downstream partition, repro seed
  // 11510521379511642707). run_to_convergence stretches its quiet
  // window to cover one full refresh sweep so quiesce-time oracle
  // checks always see post-anti-entropy state.
  core::AllocatorConfig alloc{.refresh_rounds = 32};
};

struct ConvergeStats {
  bool converged = false;
  std::uint64_t rounds = 0;       // service iterations at convergence
  std::int64_t virtual_us = 0;    // virtual time at convergence
  std::uint64_t updates_sent = 0;
  std::uint64_t updates_received = 0;  // summed over agents
  std::uint64_t events_processed = 0;
  std::uint64_t agent_polls = 0;  // EndpointAgent::poll calls the sweep ran
  // Order-sensitive FNV-1a over every (virtual_us, agent, key, code)
  // rate application; two same-seed runs must match bit-for-bit.
  std::uint64_t trajectory_hash = 0;
};

class ControlPlaneHarness {
 public:
  explicit ControlPlaneHarness(HarnessConfig cfg);
  ~ControlPlaneHarness();
  ControlPlaneHarness(const ControlPlaneHarness&) = delete;
  ControlPlaneHarness& operator=(const ControlPlaneHarness&) = delete;

  // Runs until converged or cfg.max_virtual_us; re-entrant (a fault can
  // be injected between calls and the plane re-converged).
  ConvergeStats run_to_convergence();
  // Advances virtual time by `us` unconditionally.
  void run_for(std::int64_t us);

  // Tears the service down (flows end, listener closes) and brings a
  // fresh one up on the same port; agents reconnect and replay. Wire
  // faults go to transport() directly.
  void restart_service();

  [[nodiscard]] std::uint64_t trajectory_hash() const { return hash_; }
  [[nodiscard]] std::int64_t virtual_now_us() const {
    return events_.now() / kMicrosecond;
  }
  [[nodiscard]] net::AllocatorService& service() { return *svc_; }
  [[nodiscard]] const net::EndpointAgent& agent(int i) const {
    return *agents_[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] int num_agents() const {
    return static_cast<int>(agents_.size());
  }
  [[nodiscard]] std::size_t total_flows() const { return total_flows_; }
  [[nodiscard]] std::size_t flows_seen() const { return seen_count_; }
  // Agent polls the sweep has run so far.
  [[nodiscard]] std::uint64_t agent_polls() const { return agent_polls_; }
  [[nodiscard]] SimTransport& transport() { return tr_; }
  [[nodiscard]] core::Allocator& allocator() { return alloc_; }
  [[nodiscard]] int restart_count() const { return restarts_; }
  // Null unless cfg.use_vip_proxy.
  [[nodiscard]] SimProxy* proxy() { return proxy_.get(); }
  [[nodiscard]] const HarnessConfig& config() const { return cfg_; }

 private:
  void note_rate(int agent_idx, std::uint32_t key, std::uint16_t code);
  [[nodiscard]] net::ServerConfig server_cfg();
  // One poll sweep (see the header comment).
  void sweep();
  // Re-reads agent i's deadline and readiness after a call into it.
  void refresh(std::size_t i);

  // What the sweep knows of one agent, contiguous so the sweep's skip
  // test touches no agent.
  struct Due {
    std::int64_t poll_at_us = 0;  // EndpointAgent::next_poll_us()
    bool ready = false;           // the stream's flag (set_ready_flag)
  };

  HarnessConfig cfg_;
  EventQueue events_;
  SimTransport tr_;
  topo::ClosTopology topo_;
  core::Allocator alloc_;
  std::unique_ptr<SimLoop> loop_;
  std::unique_ptr<net::AllocatorService> svc_;
  std::unique_ptr<SimProxy> proxy_;
  // By agent index, never resized after setup: streams hold pointers
  // into it, so it is declared (and outlives) agents_.
  std::vector<Due> due_;
  std::vector<std::unique_ptr<net::EndpointAgent>> agents_;
  std::uint64_t agent_polls_ = 0;
  int port_ = -1;
  int restarts_ = 0;  // also drives the allocator epoch: 1 + restarts_
  std::size_t total_flows_ = 0;
  std::size_t seen_count_ = 0;
  std::vector<bool> seen_;  // by flow key (dense, 1-based)
  std::uint64_t hash_ = 1469598103934665603ULL;  // FNV-1a offset basis
};

}  // namespace ft::sim
