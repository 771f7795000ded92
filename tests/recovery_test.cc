// Recovery drills for the fault-tolerant control plane over real
// sockets: allocator kill/restart with agent-side replay (warm
// restart), disconnect storms that must leak nothing, and dead-peer
// culling via heartbeats, driven by manual allocation rounds and seeded
// backoff jitter. The lease and frame-drop drills run on virtual time,
// against SimTransport's faults (tests/sim_transport_test.cc).
#include <gtest/gtest.h>

#include <dirent.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/ratecode.h"
#include "common/rng.h"
#include "core/allocator.h"
#include "net/client.h"
#include "net/epoll_loop.h"
#include "net/frame.h"
#include "net/server.h"
#include "topo/clos.h"

namespace ft::net {
namespace {

topo::ClosConfig small_clos() {
  topo::ClosConfig cfg;
  cfg.racks = 4;
  cfg.servers_per_rack = 4;
  cfg.spines = 2;
  cfg.fabric_link_bps = 20e9;
  return cfg;
}

core::AllocatorConfig alloc_cfg() {
  core::AllocatorConfig cfg;
  cfg.threshold = 0.0;  // every change notifies: exact equivalence
  return cfg;
}

std::size_t open_fd_count() {
  std::size_t n = 0;
  DIR* d = ::opendir("/proc/self/fd");
  if (d == nullptr) return 0;
  while (::readdir(d) != nullptr) ++n;
  ::closedir(d);
  return n;
}

struct Flow {
  std::uint32_t key;
  std::uint16_t src;
  std::uint16_t dst;
};

std::vector<Flow> make_flows(const topo::ClosTopology& clos, Rng& rng,
                             int count, std::uint32_t first_key) {
  std::vector<Flow> flows;
  const int hosts = clos.num_hosts();
  std::uint32_t key = first_key;
  for (int f = 0; f < count; ++f) {
    const auto src = static_cast<std::uint16_t>(rng.below(hosts));
    auto dst = static_cast<std::uint16_t>(rng.below(hosts - 1));
    if (dst >= src) ++dst;
    flows.push_back({key++, src, dst});
  }
  return flows;
}

// Reference run: the same flows through an uninterrupted in-process
// allocator, iterated to convergence.
std::vector<std::uint16_t> reference_codes(const topo::ClosTopology& clos,
                                           const std::vector<Flow>& flows,
                                           int iters) {
  core::Allocator ref(clos.graph().capacities(), alloc_cfg());
  for (const Flow& fl : flows) {
    const auto p =
        clos.host_path(clos.host(fl.src), clos.host(fl.dst), fl.key);
    const std::vector<LinkId> route(p.begin(), p.end());
    EXPECT_TRUE(ref.flowlet_start(fl.key, route));
  }
  std::vector<core::RateUpdate> sink;
  for (int i = 0; i < iters; ++i) {
    sink.clear();
    ref.run_iteration(sink);
  }
  std::vector<std::uint16_t> codes;
  for (const Flow& fl : flows) {
    codes.push_back(encode_rate(ref.notified_rate(fl.key)));
  }
  return codes;
}

class RecoveryTest : public ::testing::Test {
 protected:
  // Pumps the loop and every agent until `cond` holds. Unlike the
  // net_test pumps, agents in kReconnecting keep polling true.
  template <class Cond>
  bool pump_until(EpollLoop& loop, std::vector<EndpointAgent*>& agents,
                  Cond cond, std::int64_t budget_us = 10'000'000) {
    const std::int64_t deadline = EpollLoop::now_us() + budget_us;
    while (!cond()) {
      if (EpollLoop::now_us() > deadline) return false;
      loop.run_once(1'000);
      for (auto* a : agents) a->poll();
    }
    return true;
  }
};

// Tentpole drill: kill the allocator mid-run, restart it on the same
// port, and require (a) every agent reconnects with jittered backoff,
// (b) the fresh allocator rebuilds its whole flow set purely from the
// agents' replayed flowlet_start batches, and (c) the post-recovery
// allocation matches an uninterrupted run. Parameterized over inline
// and sharded service modes.
class KillRestartTest : public RecoveryTest,
                        public ::testing::WithParamInterface<int> {};

TEST_P(KillRestartTest, WarmRestartRebuildsFromReplay) {
  const topo::ClosTopology clos(small_clos());
  const int num_shards = GetParam();

  EpollLoop loop;
  auto alloc = std::make_unique<core::Allocator>(clos.graph().capacities(),
                                                 alloc_cfg());
  ServerConfig scfg;
  scfg.tcp_port = 0;
  scfg.iteration_period_us = 0;
  scfg.num_shards = num_shards;
  auto svc = std::make_unique<AllocatorService>(loop, *alloc, clos, scfg);
  const int port = svc->tcp_port();
  ASSERT_GT(port, 0);

  constexpr int kAgents = 4;
  constexpr int kFlowsPerAgent = 6;
  Rng rng(0xD1E5E1);
  std::vector<std::vector<Flow>> flows;
  std::vector<Flow> all_flows;
  for (int a = 0; a < kAgents; ++a) {
    flows.push_back(make_flows(clos, rng, kFlowsPerAgent,
                               1 + static_cast<std::uint32_t>(a) * 100));
    all_flows.insert(all_flows.end(), flows[a].begin(), flows[a].end());
  }

  std::vector<std::unique_ptr<EndpointAgent>> agents;
  std::vector<EndpointAgent*> raw;
  for (int a = 0; a < kAgents; ++a) {
    AgentConfig acfg;
    acfg.auto_reconnect = true;
    acfg.reconnect_backoff_min_us = 5'000;
    acfg.reconnect_backoff_max_us = 200'000;
    acfg.reconnect_seed = 0xC0FFEE + static_cast<std::uint64_t>(a);
    agents.push_back(std::make_unique<EndpointAgent>(acfg));
    ASSERT_TRUE(agents.back()->connect_tcp("127.0.0.1", port));
    raw.push_back(agents.back().get());
  }
  for (int a = 0; a < kAgents; ++a) {
    for (const Flow& fl : flows[a]) {
      ASSERT_TRUE(agents[a]->flowlet_start(fl.key, fl.src, fl.dst));
    }
    agents[a]->flush();
  }
  ASSERT_TRUE(pump_until(loop, raw, [&] {
    if (num_shards > 0) svc->run_allocation_round();
    return alloc->num_active_flowlets() == all_flows.size();
  }));

  // Converge once so the kill interrupts a steady state, not a cold one.
  for (int i = 0; i < 100; ++i) {
    svc->run_allocation_round();
    loop.run_once(0);
    for (auto* a : raw) a->poll();
  }

  // --- Kill. Leave one agent with a batched-but-unflushed record so
  // the close path exercises the counted drop (satellite 1: buffered
  // updates must never vanish silently).
  ASSERT_TRUE(agents[0]->flowlet_start(9000, 0, 5));
  svc.reset();
  alloc = std::make_unique<core::Allocator>(clos.graph().capacities(),
                                            alloc_cfg());

  // Every agent notices the dead socket and enters backoff.
  ASSERT_TRUE(pump_until(loop, raw, [&] {
    return std::all_of(raw.begin(), raw.end(), [](EndpointAgent* a) {
      return a->conn_state() == ConnState::kReconnecting;
    });
  }));
  for (auto* a : raw) {
    EXPECT_EQ(a->stats().disconnects, 1u);
    EXPECT_FALSE(a->connected());
  }
  // The counted drop is deterministic only inline: with shard threads
  // there can be in-flight downstream bytes, so the agent's first
  // post-kill poll may drain them successfully and then flush() the
  // batched record into the half-closed socket (send() succeeds until
  // the RST lands), leaving nothing pending when death is detected.
  if (num_shards == 0) {
    EXPECT_GE(raw[0]->stats().queue_drops_on_close, 1u);
  }

  // Jitter spread: with distinct seeds the scheduled backoffs must not
  // collapse onto one instant (thundering herd).
  std::set<std::int64_t> backoffs;
  for (auto* a : raw) backoffs.insert(a->last_backoff_us());
  EXPECT_GT(backoffs.size(), 1u);
  for (auto* a : raw) {
    EXPECT_GE(a->last_backoff_us(), 2'500);
    EXPECT_LT(a->last_backoff_us(), 200'000);
  }

  // --- Restart on the same port with a fresh allocator: no state
  // survives except what the agents replay.
  scfg.tcp_port = port;
  svc = std::make_unique<AllocatorService>(loop, *alloc, clos, scfg);
  ASSERT_EQ(svc->tcp_port(), port);

  ASSERT_TRUE(pump_until(loop, raw, [&] {
    if (num_shards > 0) svc->run_allocation_round();
    return std::all_of(raw.begin(), raw.end(), [](EndpointAgent* a) {
      return a->conn_state() == ConnState::kConnected;
    });
  }));
  for (auto* a : raw) {
    EXPECT_EQ(a->stats().reconnects, 1u);
    EXPECT_GE(a->stats().reconnect_attempts, 1u);
    // Agent 0 also replays flow 9000: its start record died unflushed
    // with the old connection, but the flow table is the truth replay
    // rebuilds from. Registration refreshes (periodic re-replay while
    // any flow is unacked) each replay the table *as of that moment*,
    // so they add between 0 and flows_here starts apiece; the
    // reconnect replay itself is the exact lower bound.
    const auto flows_here = static_cast<std::uint64_t>(kFlowsPerAgent) +
                            (a == raw[0] ? 1u : 0u);
    EXPECT_GE(a->stats().replayed_starts, flows_here);
    EXPECT_LE(a->stats().replayed_starts,
              flows_here * (1u + a->stats().registration_refreshes));
  }

  // The warm restart rebuilt the full flow set from replay alone
  // (flow 9000's start record died with the old connection: replay
  // rebuilds from the flow table, where it IS live, so it comes back).
  ASSERT_TRUE(pump_until(loop, raw, [&] {
    if (num_shards > 0) svc->run_allocation_round();
    return alloc->num_active_flowlets() == all_flows.size() + 1;
  }));

  ASSERT_TRUE(agents[0]->flowlet_end(9000));
  agents[0]->flush();
  ASSERT_TRUE(pump_until(loop, raw, [&] {
    if (num_shards > 0) svc->run_allocation_round();
    return alloc->num_active_flowlets() == all_flows.size();
  }));

  // --- Equivalence: converge the restarted service and compare against
  // an uninterrupted reference run.
  constexpr int kIters = 300;
  for (int i = 0; i < kIters; ++i) {
    svc->run_allocation_round();
    loop.run_once(0);
    for (auto* a : raw) a->poll();
  }
  // Deadline-poll the delivery of the last updates instead of hoping a
  // fixed drain window is long enough (the old 50 x 1ms wait flaked on
  // loaded runners); the exact-timing variants of this drill live on
  // the virtual clock in sim_transport_test.cc.
  const std::vector<std::uint16_t> want = reference_codes(
      clos, all_flows, kIters);
  ASSERT_TRUE(pump_until(loop, raw, [&] {
    std::size_t j = 0;
    for (int a = 0; a < kAgents; ++a) {
      for (const Flow& fl : flows[a]) {
        const int diff = static_cast<int>(agents[a]->rate_code(fl.key)) -
                         static_cast<int>(want[j]);
        if (diff > 2 || diff < -2 || agents[a]->rate_bps(fl.key) <= 0.0) {
          return false;
        }
        ++j;
      }
    }
    return true;
  }));
  std::size_t i = 0;
  for (int a = 0; a < kAgents; ++a) {
    for (const Flow& fl : flows[a]) {
      EXPECT_NEAR(agents[a]->rate_code(fl.key), want[i], 2)
          << "agent " << a << " flow " << fl.key << " after restart";
      EXPECT_GT(agents[a]->rate_bps(fl.key), 0.0);
      ++i;
    }
  }
  EXPECT_EQ(svc->stats().protocol_errors, 0u);
  EXPECT_EQ(svc->stats().rejected_starts, 0u);
}

INSTANTIATE_TEST_SUITE_P(InlineAndSharded, KillRestartTest,
                         ::testing::Values(0, 2));

TEST_F(RecoveryTest, DisconnectStormLeaksNothing) {
  // N agents spread across all shards vanish at once. The service must
  // end every owned flow, free every slot and fd, and leave no stuck
  // key_owner entry -- proven by re-registering the exact same keys.
  const topo::ClosTopology clos(small_clos());
  core::Allocator alloc(clos.graph().capacities(), alloc_cfg());

  EpollLoop loop;
  ServerConfig scfg;
  scfg.tcp_port = 0;
  scfg.iteration_period_us = 0;
  scfg.num_shards = 3;
  AllocatorService svc(loop, alloc, clos, scfg);

  const std::size_t fds_before = open_fd_count();

  constexpr int kAgents = 6;
  constexpr int kFlowsPerAgent = 5;
  Rng rng(0x5709);
  std::vector<std::vector<Flow>> flows;
  for (int a = 0; a < kAgents; ++a) {
    flows.push_back(make_flows(clos, rng, kFlowsPerAgent,
                               1 + static_cast<std::uint32_t>(a) * 64));
  }
  {
    std::vector<std::unique_ptr<EndpointAgent>> agents;
    std::vector<EndpointAgent*> raw;
    for (int a = 0; a < kAgents; ++a) {
      agents.push_back(std::make_unique<EndpointAgent>());
      ASSERT_TRUE(agents.back()->connect_tcp("127.0.0.1", svc.tcp_port()));
      raw.push_back(agents.back().get());
    }
    for (int a = 0; a < kAgents; ++a) {
      for (const Flow& fl : flows[a]) {
        ASSERT_TRUE(agents[a]->flowlet_start(fl.key, fl.src, fl.dst));
      }
      agents[a]->flush();
    }
    ASSERT_TRUE(pump_until(loop, raw, [&] {
      svc.run_allocation_round();
      return alloc.num_active_flowlets() ==
             static_cast<std::size_t>(kAgents * kFlowsPerAgent);
    }));
    ASSERT_EQ(svc.num_connections(), static_cast<std::size_t>(kAgents));
    // The storm: every agent's destructor slams its connection shut.
  }
  std::vector<EndpointAgent*> none;
  ASSERT_TRUE(pump_until(loop, none, [&] {
    svc.run_allocation_round();
    return alloc.num_active_flowlets() == 0 && svc.num_connections() == 0;
  }));

  // No fd leak: agent sockets and their service twins are all gone.
  ASSERT_TRUE(pump_until(loop, none,
                         [&] { return open_fd_count() <= fds_before; }));

  // No stuck ownership: the same keys register cleanly again.
  EndpointAgent again;
  ASSERT_TRUE(again.connect_tcp("127.0.0.1", svc.tcp_port()));
  std::vector<EndpointAgent*> raw2 = {&again};
  for (int a = 0; a < kAgents; ++a) {
    for (const Flow& fl : flows[a]) {
      ASSERT_TRUE(again.flowlet_start(fl.key, fl.src, fl.dst));
    }
  }
  again.flush();
  ASSERT_TRUE(pump_until(loop, raw2, [&] {
    svc.run_allocation_round();
    return alloc.num_active_flowlets() ==
           static_cast<std::size_t>(kAgents * kFlowsPerAgent);
  }));

  // Conservation: every accepted connection was closed, every start
  // ended (the second wave is still live), nothing rejected.
  const auto s = svc.stats();
  EXPECT_EQ(s.accepted, static_cast<std::uint64_t>(kAgents) + 1u);
  EXPECT_EQ(s.closed, static_cast<std::uint64_t>(kAgents));
  EXPECT_EQ(s.flowlet_starts,
            static_cast<std::uint64_t>(2 * kAgents * kFlowsPerAgent));
  EXPECT_EQ(s.flowlet_ends,
            static_cast<std::uint64_t>(kAgents * kFlowsPerAgent));
  EXPECT_EQ(s.rejected_starts, 0u);
  EXPECT_EQ(s.protocol_errors, 0u);
}

TEST_F(RecoveryTest, PeerTimeoutCullsSilentPeerNotHeartbeatingAgent) {
  // Dead-peer detection in O(heartbeat): a connection that goes silent
  // is culled after peer_timeout_us and its flows freed, while an agent
  // that heartbeats (but has no flowlet churn at all) stays connected.
  const topo::ClosTopology clos(small_clos());
  core::Allocator alloc(clos.graph().capacities(), alloc_cfg());

  EpollLoop loop;
  ServerConfig scfg;
  scfg.tcp_port = 0;
  scfg.iteration_period_us = 0;
  scfg.heartbeat_period_us = 5'000;
  scfg.rate_lease_us = 200'000;
  scfg.peer_timeout_us = 80'000;
  AllocatorService svc(loop, alloc, clos, scfg);

  AgentConfig acfg;
  acfg.heartbeat_period_us = 10'000;
  EndpointAgent agent(acfg);
  ASSERT_TRUE(agent.connect_tcp("127.0.0.1", svc.tcp_port()));
  std::vector<EndpointAgent*> raw = {&agent};
  ASSERT_TRUE(agent.flowlet_start(1, 0, 5));
  agent.flush();

  // The silent peer: registers flows over a raw socket, then never
  // sends another byte.
  const int silent = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(silent, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(svc.tcp_port()));
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(
      ::connect(silent, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
      0);
  {
    FrameWriter w;
    core::FlowletStartMsg m;
    m.flow_key = 500;
    m.src_host = 2;
    m.dst_host = 9;
    w.add(m);
    std::vector<std::uint8_t> bytes;
    w.flush(bytes);
    ASSERT_EQ(::send(silent, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
  }

  ASSERT_TRUE(pump_until(loop, raw, [&] {
    return alloc.num_active_flowlets() == 2;
  }));

  // The cull: flow 500 freed, the heartbeating agent untouched even
  // though it never sends another flowlet record.
  ASSERT_TRUE(pump_until(loop, raw, [&] {
    return svc.stats().peer_timeouts >= 1;
  }));
  std::vector<EndpointAgent*> still = {&agent};
  ASSERT_TRUE(pump_until(loop, still, [&] {
    return alloc.num_active_flowlets() == 1;
  }));
  EXPECT_TRUE(alloc.is_active(1));
  EXPECT_FALSE(alloc.is_active(500));
  EXPECT_EQ(svc.stats().peer_timeouts, 1u);
  EXPECT_EQ(svc.num_connections(), 1u);
  EXPECT_EQ(agent.conn_state(), ConnState::kConnected);
  EXPECT_GT(agent.stats().heartbeats_sent, 0u);
  EXPECT_GT(svc.stats().heartbeats_received, 0u);
  EXPECT_GT(svc.stats().heartbeats_sent, 0u);
  ::close(silent);
}

}  // namespace
}  // namespace ft::net
