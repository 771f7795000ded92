// Tests for the virtual-time transport stack: EventQueue determinism
// guarantees (FIFO ties, seed-replay stability), SimTransport stream
// semantics (latency, EOF, backpressure, faults), SimLoop timers, and
// the ControlPlaneHarness -- the real AllocatorService + EndpointAgents
// on virtual time, including the two-run bit-identical-trajectory
// regression and the virtual-clock ports of the recovery drills (lease
// expiry and fallback, whole-frame drops, reconnect backoff spread),
// which assert exact virtual instants where wall-clock drills would need
// tolerance bands, and EndpointAgent::next_poll_us()'s contract with the
// harness's poll sweep.
#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/allocator.h"
#include "core/messages.h"
#include "net/client.h"
#include "net/server.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "sim/control_plane_harness.h"
#include "sim/sim_proxy.h"
#include "sim/sim_transport.h"
#include "topo/clos.h"

namespace ft::sim {
namespace {

// ---------------------------------------------------------------------
// EventQueue determinism
// ---------------------------------------------------------------------

struct OrderRecorder : EventHandler {
  std::vector<std::pair<std::uint64_t, Time>> fired;
  EventQueue* q = nullptr;
  void on_event(std::uint32_t, std::uint64_t arg) override {
    fired.emplace_back(arg, q->now());
  }
};

TEST(EventQueueDeterminismTest, FifoAtEqualTimestamps) {
  EventQueue q;
  OrderRecorder r;
  r.q = &q;
  for (std::uint64_t i = 0; i < 100; ++i) q.schedule(42, &r, 0, i);
  q.run_until(100);
  ASSERT_EQ(r.fired.size(), 100u);
  for (std::uint64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(r.fired[i].first, i);   // insertion order preserved
    EXPECT_EQ(r.fired[i].second, 42);
  }
}

TEST(EventQueueDeterminismTest, SeedReplayStableOrdering) {
  // Two queues fed the same seeded schedule (with many duplicate
  // timestamps) must dispatch in the same order.
  const auto run = [] {
    EventQueue q;
    OrderRecorder r;
    r.q = &q;
    Rng rng(7);
    for (std::uint64_t i = 0; i < 1000; ++i) {
      q.schedule(static_cast<Time>(rng.below(50)), &r, 0, i);
    }
    q.run_until(100);
    return r.fired;
  };
  const auto a = run();
  const auto b = run();
  ASSERT_EQ(a.size(), 1000u);
  EXPECT_EQ(a, b);
}

// ---------------------------------------------------------------------
// SimTransport stream semantics
// ---------------------------------------------------------------------

struct Pipe {
  EventQueue q;
  SimTransport tr{q};
  int listener = -1;
  int port = 0;
  int client = -1;
  int server = -1;

  // Establishes a connection (advances one latency for the SYN).
  void establish() {
    listener = tr.listen_tcp(0, false, &port);
    ASSERT_GT(listener, 0);
    client = tr.connect_tcp("sim", port);
    ASSERT_GT(client, 0);
    EXPECT_EQ(tr.accept(listener), -1);  // SYN still in flight
    EXPECT_EQ(errno, EAGAIN);
    q.run_until(q.now() + 5 * kMicrosecond);
    server = tr.accept(listener);
    ASSERT_GT(server, 0);
  }
};

TEST(SimTransportTest, DeliversAfterLatency) {
  Pipe p;
  p.establish();
  const Time t0 = p.q.now();
  ASSERT_EQ(p.tr.write(p.client, "hello", 5), 5);
  char buf[16];
  // Not yet: the bytes are one tx_time + one latency away.
  p.q.run_until(t0 + 5 * kMicrosecond);
  EXPECT_EQ(p.tr.read(p.server, buf, sizeof buf), -1);
  EXPECT_EQ(errno, EAGAIN);
  p.q.run_until(t0 + 6 * kMicrosecond);
  ASSERT_EQ(p.tr.read(p.server, buf, sizeof buf), 5);
  EXPECT_EQ(std::memcmp(buf, "hello", 5), 0);
  // The virtual clock tracked the queue the whole way.
  EXPECT_EQ(p.tr.virtual_clock().now_us() * kMicrosecond, p.q.now());
}

TEST(SimTransportTest, EofArrivesBehindData) {
  Pipe p;
  p.establish();
  ASSERT_EQ(p.tr.write(p.client, "bye", 3), 3);
  p.tr.close(p.client);
  p.q.run_until(p.q.now() + 20 * kMicrosecond);
  char buf[8];
  ASSERT_EQ(p.tr.read(p.server, buf, sizeof buf), 3);  // data first
  EXPECT_EQ(p.tr.read(p.server, buf, sizeof buf), 0);  // then clean EOF
}

TEST(SimTransportTest, KillAllResetsEstablishedStreams) {
  Pipe p;
  p.establish();
  p.tr.kill_all();
  char buf[8];
  EXPECT_EQ(p.tr.read(p.client, buf, sizeof buf), -1);
  EXPECT_EQ(errno, ECONNRESET);
  EXPECT_EQ(p.tr.write(p.server, "x", 1), -1);
  EXPECT_EQ(errno, EPIPE);
  EXPECT_EQ(p.tr.stats().conns_reset, 1u);
  // The listener survives: a re-dial works.
  const int c2 = p.tr.connect_tcp("sim", p.port);
  ASSERT_GT(c2, 0);
  p.q.run_until(p.q.now() + 5 * kMicrosecond);
  EXPECT_GT(p.tr.accept(p.listener), 0);
}

TEST(SimTransportTest, BlackHoleSwallowsBytes) {
  Pipe p;
  p.establish();
  p.tr.set_black_hole(true);
  ASSERT_EQ(p.tr.write(p.client, "gone", 4), 4);  // write "succeeds"
  p.q.run_until(p.q.now() + 50 * kMicrosecond);
  char buf[8];
  EXPECT_EQ(p.tr.read(p.server, buf, sizeof buf), -1);
  EXPECT_EQ(errno, EAGAIN);
  EXPECT_EQ(p.tr.stats().bytes_blackholed, 4);
}

TEST(SimTransportTest, OneWayPartitionUpDropsOnlyClientToServer) {
  Pipe p;
  p.establish();
  p.tr.set_partition_up(true);
  // Client -> server evaporates (write still "succeeds")...
  ASSERT_EQ(p.tr.write(p.client, "gone", 4), 4);
  // ...while server -> client keeps flowing.
  ASSERT_EQ(p.tr.write(p.server, "ok", 2), 2);
  p.q.run_until(p.q.now() + 50 * kMicrosecond);
  char buf[8];
  EXPECT_EQ(p.tr.read(p.server, buf, sizeof buf), -1);
  EXPECT_EQ(errno, EAGAIN);
  EXPECT_EQ(p.tr.read(p.client, buf, sizeof buf), 2);
  EXPECT_EQ(std::memcmp(buf, "ok", 2), 0);
  EXPECT_EQ(p.tr.stats().bytes_partitioned_up, 4);
  EXPECT_EQ(p.tr.stats().bytes_partitioned_down, 0);
  // Healed: the direction carries bytes again.
  p.tr.set_partition_up(false);
  ASSERT_EQ(p.tr.write(p.client, "back", 4), 4);
  p.q.run_until(p.q.now() + 50 * kMicrosecond);
  EXPECT_EQ(p.tr.read(p.server, buf, sizeof buf), 4);
}

TEST(SimTransportTest, OneWayPartitionDownDropsOnlyServerToClient) {
  Pipe p;
  p.establish();
  p.tr.set_partition_down(true);
  ASSERT_EQ(p.tr.write(p.server, "gone", 4), 4);
  ASSERT_EQ(p.tr.write(p.client, "ok", 2), 2);
  p.q.run_until(p.q.now() + 50 * kMicrosecond);
  char buf[8];
  EXPECT_EQ(p.tr.read(p.client, buf, sizeof buf), -1);
  EXPECT_EQ(errno, EAGAIN);
  EXPECT_EQ(p.tr.read(p.server, buf, sizeof buf), 2);
  EXPECT_EQ(p.tr.stats().bytes_partitioned_down, 4);
  EXPECT_EQ(p.tr.stats().bytes_partitioned_up, 0);
}

// The conservation identity: every accepted byte has exactly one fate.
bool conserved(const SimTransport& tr) {
  const SimTransportStats& st = tr.stats();
  return st.bytes_accepted ==
         st.bytes_delivered + st.bytes_blackholed +
             st.bytes_partitioned_up + st.bytes_partitioned_down +
             st.bytes_dropped_sieve + st.bytes_dropped_closed +
             tr.stranded_bytes();
}

// Exercises delivery, black hole, both partitions, sieve drops, bytes
// dying at a closed peer, and stranded in-flight bytes.
TEST(SimTransportTest, ByteConservationIdentityHoldsAcrossFaults) {
  Pipe p;
  p.establish();
  char buf[64];
  ASSERT_EQ(p.tr.write(p.client, "hello", 5), 5);
  EXPECT_TRUE(conserved(p.tr));  // 5 bytes in flight = stranded
  p.q.run_until(p.q.now() + 50 * kMicrosecond);
  ASSERT_EQ(p.tr.read(p.server, buf, sizeof buf), 5);
  EXPECT_TRUE(conserved(p.tr));  // delivered

  p.tr.set_black_hole(true);
  ASSERT_EQ(p.tr.write(p.client, "bh", 2), 2);
  p.tr.set_black_hole(false);
  p.tr.set_partition_up(true);
  ASSERT_EQ(p.tr.write(p.client, "up", 2), 2);
  p.tr.set_partition_up(false);
  p.tr.set_partition_down(true);
  ASSERT_EQ(p.tr.write(p.server, "dn", 2), 2);
  p.tr.set_partition_down(false);
  EXPECT_TRUE(conserved(p.tr));

  // Sieve drop: a whole frame dies, counted in bytes and records.
  p.tr.set_drop_down_frac(1.0);
  const std::vector<std::uint8_t> frame = {1, 0, 0, 0, 5};  // 1-byte
  // payload whose first byte is the kHeartbeat record tag
  ASSERT_EQ(p.tr.write(p.server, frame.data(), frame.size()),
            static_cast<std::int64_t>(frame.size()));
  p.tr.set_drop_down_frac(0.0);
  EXPECT_EQ(p.tr.stats().bytes_dropped_sieve, 5);
  EXPECT_TRUE(conserved(p.tr));

  // Bytes racing a close die at the closed door -- accounted, not lost.
  ASSERT_EQ(p.tr.write(p.client, "late", 4), 4);
  p.tr.close(p.server);
  p.q.run_until(p.q.now() + 50 * kMicrosecond);
  EXPECT_GE(p.tr.stats().bytes_dropped_closed, 4);
  EXPECT_TRUE(conserved(p.tr));
}

// Both ends close with bytes in flight both ways, so the pair is erased
// before its deliveries fire. The stale deliveries must die as named
// closed-door drops, and must not land in a connection dialed after the
// teardown: handles are never reused.
TEST(SimTransportTest, PairTeardownWithBytesInFlightBothWays) {
  Pipe p;
  p.establish();
  EXPECT_EQ(p.tr.num_streams(), 2u);
  const std::int64_t closed0 = p.tr.stats().bytes_dropped_closed;
  const std::int64_t delivered0 = p.tr.stats().bytes_delivered;
  ASSERT_EQ(p.tr.write(p.client, "upstream", 8), 8);
  ASSERT_EQ(p.tr.write(p.server, "down", 4), 4);
  EXPECT_EQ(p.tr.stranded_bytes(), 12);
  EXPECT_TRUE(conserved(p.tr));

  p.tr.close(p.client);
  EXPECT_TRUE(conserved(p.tr));
  EXPECT_EQ(p.tr.num_streams(), 2u);  // the server end is still open
  p.tr.close(p.server);
  EXPECT_TRUE(conserved(p.tr));
  EXPECT_EQ(p.tr.num_streams(), 0u);  // pair erased...
  EXPECT_EQ(p.tr.stranded_bytes(), 12);  // ...its bytes still in flight

  const int c2 = p.tr.connect_tcp("sim", p.port);
  ASSERT_GT(c2, 0);
  EXPECT_NE(c2, p.client);
  EXPECT_NE(c2, p.server);
  EXPECT_TRUE(conserved(p.tr));

  p.q.run_until(p.q.now() + 50 * kMicrosecond);
  EXPECT_TRUE(conserved(p.tr));
  EXPECT_EQ(p.tr.stranded_bytes(), 0);
  EXPECT_EQ(p.tr.stats().bytes_dropped_closed - closed0, 12);
  EXPECT_EQ(p.tr.stats().bytes_delivered, delivered0);
  const int s2 = p.tr.accept(p.listener);
  ASSERT_GT(s2, 0);
  EXPECT_NE(s2, p.client);
  EXPECT_NE(s2, p.server);
  EXPECT_EQ(p.tr.num_streams(), 2u);
  char buf[16];
  EXPECT_EQ(p.tr.read(c2, buf, sizeof buf), -1);
  EXPECT_EQ(errno, EAGAIN);
  EXPECT_EQ(p.tr.read(s2, buf, sizeof buf), -1);
  EXPECT_EQ(errno, EAGAIN);
}

// A client writes a whole frame while the proxy's upstream is down
// (mid-redial) and then hangs up. The frame reached the proxy but can
// never be forwarded: it must be counted as discarded on close, so every
// byte the proxy reads is forwarded or named.
TEST(SimTransportTest, ProxyCountsBytesDiscardedOnClose) {
  EventQueue q;
  SimTransport tr(q);
  SimProxy::Config pc;
  pc.upstream_port = 9999;  // nothing bound: every dial is refused
  SimProxy proxy(tr, pc);
  obs::MetricsRegistry reg;
  proxy.bind_metrics(reg, "vip");
  const int client = tr.connect_tcp("sim", proxy.port());
  ASSERT_GT(client, 0);
  q.run_until(q.now() + 50 * kMicrosecond);  // accepted, dial refused
  ASSERT_EQ(proxy.num_sessions(), 1u);
  ASSERT_EQ(proxy.num_upstreams(), 0u);

  const std::vector<std::uint8_t> frame = {1, 0, 0, 0, 5};  // 1-byte
  // payload: a heartbeat record tag
  ASSERT_EQ(tr.write(client, frame.data(), frame.size()),
            static_cast<std::int64_t>(frame.size()));
  tr.close(client);
  q.run_until(q.now() + 50 * kMicrosecond);
  EXPECT_EQ(proxy.num_sessions(), 0u);
  EXPECT_EQ(proxy.stats().clients_closed, 1u);
  EXPECT_EQ(tr.stats().bytes_delivered,
            static_cast<std::int64_t>(frame.size()));  // into the proxy
  EXPECT_EQ(proxy.stats().bytes_up, 0);
  EXPECT_EQ(proxy.stats().bytes_discarded_resync, 0);
  EXPECT_EQ(proxy.stats().bytes_discarded_on_close,
            static_cast<std::int64_t>(frame.size()));
  EXPECT_EQ(reg.counter("vip.bytes_discarded_on_close").value(),
            frame.size());
}

TEST(SimTransportTest, SieveAttributesDroppedRecordsByType) {
  Pipe p;
  p.establish();
  p.tr.set_drop_down_frac(1.0);
  // One frame holding a rate-update record (tag 3) and a heartbeat
  // record (tag 5), sized per net/frame.h.
  std::vector<std::uint8_t> payload;
  payload.push_back(3);
  payload.resize(payload.size() + core::kRateUpdateBytes, 0);
  payload.push_back(5);
  payload.resize(payload.size() + core::kHeartbeatBytes, 0);
  std::vector<std::uint8_t> frame = {
      static_cast<std::uint8_t>(payload.size()), 0, 0, 0};
  frame.insert(frame.end(), payload.begin(), payload.end());
  ASSERT_EQ(p.tr.write(p.server, frame.data(), frame.size()),
            static_cast<std::int64_t>(frame.size()));
  EXPECT_EQ(p.tr.stats().records_dropped_rate, 1u);
  EXPECT_EQ(p.tr.stats().records_dropped_heartbeat, 1u);
  EXPECT_EQ(p.tr.stats().records_dropped_start, 0u);
  EXPECT_EQ(p.tr.stats().records_dropped_other, 0u);
}

TEST(SimTransportTest, DropSieveDropsWholeFrames) {
  Pipe p;
  p.establish();
  p.tr.set_drop_down_frac(1.0);  // every frame dies
  // One length-prefixed frame, written from the accept (server) side --
  // the direction the sieve watches.
  std::vector<std::uint8_t> frame = {8, 0, 0, 0};  // payload_len = 8
  frame.resize(4 + 8, 0xab);
  ASSERT_EQ(p.tr.write(p.server, frame.data(), frame.size()),
            static_cast<std::int64_t>(frame.size()));
  p.q.run_until(p.q.now() + 50 * kMicrosecond);
  char buf[32];
  EXPECT_EQ(p.tr.read(p.client, buf, sizeof buf), -1);
  EXPECT_EQ(errno, EAGAIN);
  EXPECT_EQ(p.tr.stats().frames_down, 1u);
  EXPECT_EQ(p.tr.stats().frames_dropped, 1u);
  // Healed link: frames flow again.
  p.tr.set_drop_down_frac(0.0);
  ASSERT_EQ(p.tr.write(p.server, frame.data(), frame.size()),
            static_cast<std::int64_t>(frame.size()));
  p.q.run_until(p.q.now() + 50 * kMicrosecond);
  EXPECT_EQ(p.tr.read(p.client, buf, sizeof buf),
            static_cast<std::int64_t>(frame.size()));
}

TEST(SimTransportTest, BackpressureAndWindowReopen) {
  Pipe p;
  p.establish();
  p.tr.set_stream_buf_bytes(8);
  ASSERT_EQ(p.tr.write(p.client, "12345678", 8), 8);
  EXPECT_EQ(p.tr.write(p.client, "x", 1), -1);  // window full
  EXPECT_EQ(errno, EAGAIN);
  p.q.run_until(p.q.now() + 20 * kMicrosecond);
  char buf[8];
  ASSERT_EQ(p.tr.read(p.server, buf, sizeof buf), 8);  // drain
  EXPECT_EQ(p.tr.write(p.client, "x", 1), 1);          // reopened
}

TEST(SimTransportTest, ConnectRefusedWithoutListener) {
  EventQueue q;
  SimTransport tr(q);
  EXPECT_EQ(tr.connect_tcp("sim", 9999), -1);
  EXPECT_EQ(errno, ECONNREFUSED);
}

TEST(SimLoopTest, TimersFireAtExactVirtualDeadlines) {
  EventQueue q;
  SimTransport tr(q);
  SimLoop loop(tr);
  std::vector<std::int64_t> ticks;
  loop.add_periodic(100, [&] { ticks.push_back(tr.clock().now_us()); });
  std::int64_t oneshot_at = -1;
  loop.add_timer(250, [&] { oneshot_at = tr.clock().now_us(); });
  loop.run_once(1000);
  ASSERT_EQ(ticks.size(), 10u);
  for (std::size_t i = 0; i < ticks.size(); ++i) {
    EXPECT_EQ(ticks[i], static_cast<std::int64_t>(100 * (i + 1)));
  }
  EXPECT_EQ(oneshot_at, 250);  // exact, no tolerance band needed
}

// A destroyed loop takes its pending timers with it: nothing fires into
// the freed loop, and a loop sharing the transport keeps its own.
TEST(SimLoopTest, DestroyedLoopNeverFiresItsTimers) {
  EventQueue q;
  SimTransport tr(q);
  SimLoop survivor(tr);
  std::int64_t survivor_at = -1;
  survivor.add_timer(50, [&] { survivor_at = tr.clock().now_us(); });
  int fired = 0;
  {
    std::unique_ptr<net::IoLoop> loop = tr.make_loop();
    loop->add_timer(10, [&] { ++fired; });
    loop->add_periodic(5, [&] { ++fired; });
  }
  q.run_until(100 * kMicrosecond);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(survivor_at, 50);
}

TEST(SimLoopTest, CancelledTimerStaysSilentAfterItsLoopDies) {
  EventQueue q;
  SimTransport tr(q);
  int fired = 0;
  {
    std::unique_ptr<net::IoLoop> loop = tr.make_loop();
    const net::IoLoop::TimerId id = loop->add_periodic(5, [&] { ++fired; });
    q.run_until(12 * kMicrosecond);
    ASSERT_EQ(fired, 2);
    loop->cancel_timer(id);
  }
  q.run_until(100 * kMicrosecond);
  EXPECT_EQ(fired, 2);
}

// ---------------------------------------------------------------------
// ControlPlaneHarness: the real control plane on virtual time
// ---------------------------------------------------------------------

HarnessConfig small_cfg(std::uint64_t seed = 1) {
  HarnessConfig cfg;
  cfg.num_endpoints = 64;
  cfg.flows_per_endpoint = 2;
  cfg.servers_per_rack = 8;
  cfg.spines = 2;
  cfg.stable_rounds = 3;
  cfg.max_virtual_us = 5'000'000;
  cfg.seed = seed;
  return cfg;
}

TEST(ControlPlaneHarnessTest, ConvergesWithAllFlowsSeen) {
  ControlPlaneHarness h(small_cfg());
  const ConvergeStats st = h.run_to_convergence();
  EXPECT_TRUE(st.converged);
  EXPECT_EQ(h.flows_seen(), h.total_flows());
  EXPECT_GT(st.rounds, 0u);
  EXPECT_GT(st.updates_sent, 0u);
  EXPECT_GT(st.updates_received, 0u);
  EXPECT_GT(st.virtual_us, 0);
  EXPECT_EQ(h.service().num_connections(), 64u);
  EXPECT_EQ(h.allocator().num_active_flowlets(), h.total_flows());
}

TEST(ControlPlaneHarnessTest, SameSeedRunsAreBitIdentical) {
  ControlPlaneHarness a(small_cfg(17));
  ControlPlaneHarness b(small_cfg(17));
  const ConvergeStats sa = a.run_to_convergence();
  const ConvergeStats sb = b.run_to_convergence();
  ASSERT_TRUE(sa.converged);
  // Not just the hash: every observable of the run must line up.
  EXPECT_EQ(sa.trajectory_hash, sb.trajectory_hash);
  EXPECT_EQ(sa.rounds, sb.rounds);
  EXPECT_EQ(sa.virtual_us, sb.virtual_us);
  EXPECT_EQ(sa.updates_sent, sb.updates_sent);
  EXPECT_EQ(sa.updates_received, sb.updates_received);
  EXPECT_EQ(sa.events_processed, sb.events_processed);
}

// SameSeedRunsAreBitIdentical compares two runs of one build, so a
// transport change that reorders events in both runs would pass it.
// These constants pin the trajectory itself: a change that moves them
// must say why.
TEST(ControlPlaneHarnessTest, CleanTrajectoryIsPinned) {
  ControlPlaneHarness h(small_cfg(17));
  const ConvergeStats st = h.run_to_convergence();
  ASSERT_TRUE(st.converged);
  EXPECT_EQ(st.trajectory_hash, 0x6348bcacf720acd2ULL);
  EXPECT_EQ(st.events_processed, 2074u);
  EXPECT_EQ(st.updates_sent, 2126u);
  EXPECT_EQ(st.rounds, 122u);
}

// Same, through a reset storm: kill_all's victim order and the
// reconnect traffic's stream teardown both feed the trajectory.
TEST(ControlPlaneHarnessTest, FaultedTrajectoryIsPinned) {
  ControlPlaneHarness h(small_cfg(17));
  ASSERT_TRUE(h.run_to_convergence().converged);
  h.transport().kill_all();
  const ConvergeStats st = h.run_to_convergence();
  ASSERT_TRUE(st.converged);
  EXPECT_EQ(st.trajectory_hash, 0x44c5cf4e525d3e6cULL);
  EXPECT_EQ(st.events_processed, 4027u);
  EXPECT_EQ(st.updates_sent, 4251u);
  EXPECT_EQ(st.rounds, 273u);
}

// The chaos campaign's liveness profile (heartbeats both ways, leases,
// peer timeouts) through a black hole long enough to time out every
// agent, so lease expiry, decay, heartbeats, peer timeouts and
// reconnect backoff all drive polls. The constants are the trajectory
// of a sweep that polls every agent, which skipping must reproduce.
TEST(ControlPlaneHarnessTest, HardenedTrajectoryIsPinned) {
  HarnessConfig cfg = small_cfg(17);
  cfg.heartbeat_period_us = 10'000;
  cfg.rate_lease_us = 50'000;
  cfg.peer_timeout_us = 300'000;
  cfg.agent_heartbeat_period_us = 10'000;
  cfg.agent_peer_timeout_us = 150'000;
  ControlPlaneHarness h(cfg);
  ASSERT_TRUE(h.run_to_convergence().converged);
  h.transport().set_black_hole(true);
  h.run_for(200'000);
  h.transport().set_black_hole(false);
  const ConvergeStats st = h.run_to_convergence();
  ASSERT_TRUE(st.converged);
  EXPECT_EQ(st.trajectory_hash, 0x89185696e5bf98e3ULL);
  EXPECT_EQ(st.events_processed, 13646u);
  EXPECT_EQ(st.updates_sent, 4856u);
  EXPECT_EQ(st.rounds, 667u);
}

// The sweep polls an agent only when its stream has news or a timer is
// due. Converged and idle, news is the anti-entropy re-emission: with
// refresh_rounds = 32, each round reaches at most ceil(128 / 32) = 4 of
// the 64 agents, where polling everyone would cost 64 per round.
TEST(ControlPlaneHarnessTest, IdleRoundsPollOnlyAgentsWithNews) {
  ControlPlaneHarness h(small_cfg(17));
  const ConvergeStats st = h.run_to_convergence();
  ASSERT_TRUE(st.converged);
  EXPECT_EQ(st.agent_polls, h.agent_polls());
  EXPECT_LT(st.agent_polls, st.rounds * 64);
  const std::uint64_t before = h.agent_polls();
  h.run_for(32 * h.config().iteration_period_us);
  const std::uint64_t idle = h.agent_polls() - before;
  EXPECT_GT(idle, 0u);
  EXPECT_LE(idle, 32u * 4u);
}

TEST(ControlPlaneHarnessTest, DifferentSeedsDiverge) {
  ControlPlaneHarness a(small_cfg(1));
  ControlPlaneHarness b(small_cfg(2));
  const ConvergeStats sa = a.run_to_convergence();
  const ConvergeStats sb = b.run_to_convergence();
  ASSERT_TRUE(sa.converged);
  ASSERT_TRUE(sb.converged);
  EXPECT_NE(sa.trajectory_hash, sb.trajectory_hash);
}

// Virtual-clock port of the recovery backoff-spread drill: after a
// reset storm the jittered schedules must not line up, and with a
// fixed seed the whole storm replays identically.
TEST(ControlPlaneHarnessTest, ReconnectStormSpreadsBackoff) {
  ControlPlaneHarness h(small_cfg(5));
  ASSERT_TRUE(h.run_to_convergence().converged);
  h.transport().kill_all();
  h.run_for(500'000);  // enough virtual time to re-dial everyone
  std::set<std::int64_t> backoffs;
  int reconnected = 0;
  for (int i = 0; i < h.num_agents(); ++i) {
    backoffs.insert(h.agent(i).last_backoff_us());
    if (h.agent(i).connected()) ++reconnected;
  }
  EXPECT_EQ(reconnected, h.num_agents());
  // 64 agents drawing jitter from 64 independent seeds: the spread must
  // be wide (no thundering herd).
  EXPECT_GT(backoffs.size(), 32u);
  // And the plane re-converges after the storm.
  EXPECT_TRUE(h.run_to_convergence().converged);
}

// Service crash-restart on virtual time: agents reconnect and replay
// every live flowlet; the allocator rebuilds its full flow set.
TEST(ControlPlaneHarnessTest, ServiceRestartRebuildsFlowState) {
  ControlPlaneHarness h(small_cfg(9));
  ASSERT_TRUE(h.run_to_convergence().converged);
  h.restart_service();
  EXPECT_EQ(h.allocator().num_active_flowlets(), 0u);  // flows ended
  ASSERT_TRUE(h.run_to_convergence().converged);
  EXPECT_EQ(h.allocator().num_active_flowlets(), h.total_flows());
  EXPECT_EQ(h.service().num_connections(), 64u);
  std::uint64_t replayed = 0;
  for (int i = 0; i < h.num_agents(); ++i) {
    replayed += h.agent(i).stats().replayed_starts;
  }
  EXPECT_EQ(replayed, h.total_flows());
}

// Virtual-clock port of the recovery lease-expiry drill. On the wall
// clock this needs tolerance bands; here the heartbeat cadence and the
// silence window are exact virtual quantities.
TEST(ControlPlaneHarnessTest, LeaseExpiresOnVirtualClockUnderBlackHole) {
  HarnessConfig cfg = small_cfg(3);
  cfg.heartbeat_period_us = 10'000;
  cfg.rate_lease_us = 50'000;
  cfg.poll_period_us = 500;
  ControlPlaneHarness h(cfg);
  ASSERT_TRUE(h.run_to_convergence().converged);
  // Heartbeats arriving: leases fresh everywhere.
  h.run_for(30'000);
  for (int i = 0; i < h.num_agents(); ++i) {
    ASSERT_TRUE(h.agent(i).lease_fresh()) << "agent " << i;
  }
  h.transport().set_black_hole(true);
  // The last heartbeat landed within the previous 10ms, so every lease
  // deadline sits in (t0+40ms, t0+50ms]: at t0+20ms all still fresh...
  h.run_for(20'000);
  for (int i = 0; i < h.num_agents(); ++i) {
    ASSERT_TRUE(h.agent(i).lease_fresh()) << "agent " << i;
  }
  // ...and by t0+60ms every lease has expired and the agents degraded.
  h.run_for(40'000);
  std::uint64_t expiries = 0;
  for (int i = 0; i < h.num_agents(); ++i) {
    EXPECT_FALSE(h.agent(i).lease_fresh()) << "agent " << i;
    EXPECT_EQ(h.agent(i).conn_state(), net::ConnState::kDegraded)
        << "agent " << i;
    expiries += h.agent(i).stats().lease_expiries;
  }
  EXPECT_EQ(expiries, static_cast<std::uint64_t>(h.num_agents()));
}

// ---------------------------------------------------------------------
// Recovery drills on virtual time: one real AllocatorService and one
// real EndpointAgent on the SimTransport (wired as ControlPlaneHarness
// wires them), allocation rounds run by hand, faults injected into the
// transport.
// ---------------------------------------------------------------------

struct DrillPlane {
  static constexpr std::int64_t kStepUs = 500;  // between agent polls

  EventQueue q;
  SimTransport tr;
  SimLoop loop{tr};
  topo::ClosTopology clos{{.racks = 4,
                           .servers_per_rack = 4,
                           .spines = 2,
                           .fabric_link_bps = 20e9}};
  // Threshold 0: every rate change is notified.
  core::Allocator alloc{clos.graph().capacities(), {.threshold = 0.0}};
  net::AllocatorService svc;
  net::EndpointAgent agent;
  // Virtual time of the last poll that received a heartbeat or a rate
  // update, i.e. that re-armed the agent's lease.
  std::int64_t last_rx_us = 0;

  DrillPlane(std::uint64_t seed, std::int64_t heartbeat_us,
             std::int64_t lease_us, net::AgentConfig acfg)
      : tr(q, seed),
        svc(loop, alloc, clos,
            [&] {
              net::ServerConfig c;
              c.transport = &tr;
              c.tcp_port = 0;
              c.iteration_period_us = 0;
              c.heartbeat_period_us = heartbeat_us;
              c.rate_lease_us = lease_us;
              return c;
            }()),
        agent([&] {
          acfg.transport = &tr;
          return std::move(acfg);
        }()) {
    EXPECT_TRUE(agent.connect_tcp("sim", svc.tcp_port()));
  }

  [[nodiscard]] std::int64_t now_us() const { return q.now() / kMicrosecond; }

  // Advances virtual time one step, then polls the agent.
  void step() {
    const net::AgentStats& st = agent.stats();
    const std::uint64_t rx0 = st.heartbeats_received + st.updates_received;
    loop.run_once(kStepUs);
    agent.poll();
    if (st.heartbeats_received + st.updates_received != rx0) {
      last_rx_us = now_us();
    }
  }
  // Steps (after an allocation round, if `rounds`) until `cond` holds;
  // false if `budget_us` of virtual time passes first.
  template <class Cond>
  bool run_until(bool rounds, Cond cond,
                 std::int64_t budget_us = 1'000'000) {
    const std::int64_t deadline = now_us() + budget_us;
    while (!cond()) {
      if (now_us() >= deadline) return false;
      if (rounds) svc.run_allocation_round();
      step();
    }
    return true;
  }
};

// Black-hole the network: the agent must stop trusting its allocation,
// decay to the safe fallback, fire the FallbackPolicy hook once per
// flow, and hand both flows back on the first fresh update once the
// network heals. Every instant below is an exact virtual quantity.
TEST(SimRecoveryTest, LeaseExpiryDecaysToFallbackThenReclaims) {
  constexpr std::int64_t kHeartbeatUs = 5'000;
  constexpr std::int64_t kLeaseUs = 50'000;
  constexpr std::int64_t kDecayUs = 2'000;
  constexpr double kFallbackBps = 5e6;
  using Hooks = std::vector<std::pair<std::uint32_t, bool>>;
  Hooks hooks;  // (key, entering), in call order
  net::AgentConfig acfg;
  acfg.fallback_rate_bps = kFallbackBps;
  acfg.fallback_decay = 0.5;
  acfg.fallback_decay_interval_us = kDecayUs;
  acfg.on_fallback = [&](std::uint32_t key, double, bool entering) {
    hooks.emplace_back(key, entering);
  };
  DrillPlane p(42, kHeartbeatUs, kLeaseUs, acfg);
  net::EndpointAgent& agent = p.agent;

  ASSERT_TRUE(agent.flowlet_start(7, 0, 5));
  ASSERT_TRUE(agent.flowlet_start(8, 1, 9));
  agent.flush();
  ASSERT_TRUE(p.run_until(true, [&] {
    return agent.lease_fresh() && agent.rate_bps(7) > 0.0 &&
           agent.rate_bps(8) > 0.0;
  }));
  for (int i = 0; i < 100; ++i) {  // converge
    p.svc.run_allocation_round();
    p.step();
  }
  ASSERT_TRUE(agent.lease_fresh());
  const std::uint16_t healthy_code7 = agent.rate_code(7);
  ASSERT_GT(agent.rate_bps(7), kFallbackBps);

  // --- Partition: streams stay up, nothing gets through. The lease
  // expires at last_rx_us + lease; the next poll degrades the agent.
  p.tr.set_black_hole(true);
  double r7 = 0.0;  // rates at the last poll before degrading
  double r8 = 0.0;
  ASSERT_TRUE(p.run_until(true, [&] {
    if (agent.conn_state() == net::ConnState::kDegraded) return true;
    r7 = agent.rate_bps(7);
    r8 = agent.rate_bps(8);
    return false;
  }));
  const std::int64_t degraded_at = p.now_us();
  EXPECT_EQ(degraded_at, p.last_rx_us + kLeaseUs + DrillPlane::kStepUs);
  EXPECT_EQ(agent.stats().lease_expiries, 1u);
  EXPECT_FALSE(agent.lease_fresh());

  // Rates halve on the degrading poll and every decay interval after
  // it, down to exactly the fallback floor; the hook reported the
  // handover once per flow, on entry.
  for (int k = 1; agent.rate_bps(7) > kFallbackBps ||
                  agent.rate_bps(8) > kFallbackBps;
       ++k) {
    ASSERT_LT(k, 64);
    EXPECT_EQ(agent.rate_bps(7), std::max(kFallbackBps, std::ldexp(r7, -k)));
    EXPECT_EQ(agent.rate_bps(8), std::max(kFallbackBps, std::ldexp(r8, -k)));
    for (int i = 0; i < kDecayUs / DrillPlane::kStepUs; ++i) p.step();
  }
  EXPECT_EQ(agent.rate_bps(7), kFallbackBps);
  EXPECT_EQ(agent.rate_bps(8), kFallbackBps);
  const Hooks entered = {{7, true}, {8, true}};
  EXPECT_TRUE(std::is_permutation(hooks.begin(), hooks.end(),
                                  entered.begin(), entered.end()));

  // --- Heal: the next heartbeat (at most one period away) re-arms the
  // lease; the degraded time is exactly the span between the two polls.
  p.tr.set_black_hole(false);
  const std::uint64_t hb0 = agent.stats().heartbeats_received;
  ASSERT_TRUE(p.run_until(
      false, [&] { return agent.lease_fresh(); },
      kHeartbeatUs + DrillPlane::kStepUs));
  EXPECT_EQ(agent.conn_state(), net::ConnState::kConnected);
  EXPECT_EQ(agent.stats().heartbeats_received, hb0 + 1);
  EXPECT_EQ(agent.stats().degraded_us, p.now_us() - degraded_at);

  // A fresh update (forced by invalidating the notification) reclaims
  // each flow from fallback within one round, at its old rate.
  p.alloc.invalidate_notification(7);
  p.alloc.invalidate_notification(8);
  ASSERT_TRUE(p.run_until(true, [&] { return hooks.size() >= 4; },
                          DrillPlane::kStepUs));
  ASSERT_EQ(hooks.size(), 4u);
  const Hooks reclaimed = {{7, false}, {8, false}};
  EXPECT_TRUE(std::is_permutation(hooks.begin() + 2, hooks.end(),
                                  reclaimed.begin(), reclaimed.end()));
  EXPECT_EQ(agent.rate_code(7), healthy_code7);
}

// Half the service->agent frames die, but whole frames only (the
// agent's parser never sees a torn stream) and seeded (the same frames
// die on every run), with every lost byte accounted.
TEST(SimRecoveryTest, DropSieveDropsWholeFramesDeterministically) {
  const auto drill = [] {
    DrillPlane p(7, 0, 0, {});
    p.tr.set_drop_down_frac(0.5);
    for (std::uint32_t key = 1; key <= 8; ++key) {
      EXPECT_TRUE(p.agent.flowlet_start(
          key, static_cast<std::uint16_t>(key % 16),
          static_cast<std::uint16_t>((key + 5) % 16)));
    }
    p.agent.flush();
    EXPECT_TRUE(p.run_until(
        false, [&] { return p.alloc.num_active_flowlets() == 8; }));
    for (int i = 0; i < 200; ++i) {
      p.svc.run_allocation_round();
      p.step();
    }
    // Threshold 0 re-emits dropped notifications round by round until
    // every flow's rate has landed.
    EXPECT_TRUE(p.run_until(true, [&] {
      for (std::uint32_t key = 1; key <= 8; ++key) {
        if (p.agent.rate_bps(key) <= 0.0) return false;
      }
      return true;
    }));
    EXPECT_EQ(p.svc.stats().protocol_errors, 0u);
    EXPECT_EQ(p.agent.stats().disconnects, 0u);
    EXPECT_TRUE(conserved(p.tr));
    return p.tr.stats();
  };
  const SimTransportStats a = drill();
  EXPECT_GT(a.frames_down, 20u);
  EXPECT_GT(a.frames_dropped, a.frames_down / 4);
  EXPECT_LT(a.frames_dropped, a.frames_down);
  EXPECT_GT(a.records_dropped_rate, 0u);
  const SimTransportStats b = drill();  // seeded: the same frames die
  EXPECT_EQ(b.frames_down, a.frames_down);
  EXPECT_EQ(b.frames_dropped, a.frames_dropped);
  EXPECT_EQ(b.bytes_dropped_sieve, a.bytes_dropped_sieve);
  EXPECT_EQ(b.bytes_delivered, a.bytes_delivered);
}

// Starts `n` flows (keys 1..n) and runs rounds until each has a rate.
void start_acked_flows(DrillPlane& p, std::uint32_t n) {
  for (std::uint32_t key = 1; key <= n; ++key) {
    const auto src = static_cast<std::uint16_t>(key % 16);
    const auto dst = static_cast<std::uint16_t>((key + 5) % 16);
    ASSERT_TRUE(p.agent.flowlet_start(key, src, dst));
  }
  p.agent.flush();
  ASSERT_TRUE(p.run_until(true, [&] {
    for (std::uint32_t key = 1; key <= n; ++key) {
      if (p.agent.rate_code(key) == 0) return false;
    }
    return true;
  }));
}

// A flow started a moment ago is waiting for its first rate, not lost:
// one more flow on a long-lived, fully acked connection must not replay
// the whole table (the service would re-emit a rate for every flow).
TEST(SimRecoveryTest, NewFlowOnAnAckedTableReplaysNothing) {
  DrillPlane p(11, 0, 0, {});
  net::EndpointAgent& agent = p.agent;
  start_acked_flows(p, 20);
  // More than one refresh period after the connection's last replay.
  ASSERT_TRUE(p.run_until(true, [&] { return p.now_us() >= 350'000; }));
  ASSERT_EQ(agent.stats().registration_refreshes, 0u);

  ASSERT_TRUE(agent.flowlet_start(21, 3, 12));
  p.step();  // one poll before the next round: flow 21 is still unacked
  p.step();  // the service reads what that poll sent
  EXPECT_EQ(agent.stats().registration_refreshes, 0u);
  EXPECT_EQ(agent.stats().replayed_starts, 0u);
  EXPECT_EQ(p.svc.stats().replayed_starts, 0u);
  // The next round acks it like any other flow.
  EXPECT_TRUE(p.run_until(true, [&] { return agent.rate_code(21) != 0; },
                          DrillPlane::kStepUs));
}

// ---------------------------------------------------------------------
// EndpointAgent::next_poll_us(): until the deadline a poll of an
// unreadable agent changes nothing, and at the deadline it does the due
// action -- the contract the harness's poll sweep relies on.
// ---------------------------------------------------------------------

constexpr std::int64_t kNever = std::numeric_limits<std::int64_t>::max();

// What a poll may change: the agent's stats, state, lease, applied
// rates (keys 1..flows), and the bytes it hands the transport.
struct AgentView {
  net::AgentStats stats;
  net::ConnState state;
  std::int64_t lease_deadline_us;
  std::int64_t bytes_accepted;
  std::vector<double> rates;
  bool operator==(const AgentView&) const = default;
};

AgentView view(DrillPlane& p, std::uint32_t flows) {
  AgentView v{p.agent.stats(), p.agent.conn_state(),
              p.agent.lease_deadline_us(), p.tr.stats().bytes_accepted, {}};
  for (std::uint32_t key = 1; key <= flows; ++key) {
    v.rates.push_back(p.agent.rate_bps(key));
  }
  return v;
}

// Polls just after now, halfway to the agent's deadline and one
// microsecond short of it, expecting each poll to change nothing and
// to leave the deadline in place; then moves the clock to the deadline
// without polling. Nothing may arrive meanwhile.
void poll_quietly_until_due(DrillPlane& p, std::uint32_t flows) {
  const std::int64_t from = p.now_us();
  const std::int64_t due = p.agent.next_poll_us();
  ASSERT_GT(due, from);
  ASSERT_LT(due, kNever);
  for (const std::int64_t t : {from + 1, from + (due - from) / 2, due - 1}) {
    if (t <= p.now_us()) continue;
    p.q.run_until(t * kMicrosecond);
    ASSERT_FALSE(p.tr.readable(p.agent.handle()));
    const AgentView before = view(p, flows);
    p.agent.poll();
    EXPECT_TRUE(view(p, flows) == before) << "poll at " << t << " us";
    EXPECT_EQ(p.agent.next_poll_us(), due) << "poll at " << t << " us";
  }
  p.q.run_until(due * kMicrosecond);
  ASSERT_FALSE(p.tr.readable(p.agent.handle()));
}

TEST(AgentDeadlineTest, ConnectedIdleAgentIsNeverDue) {
  DrillPlane p(21, 0, 0, {});
  start_acked_flows(p, 2);
  ASSERT_FALSE(p.tr.readable(p.agent.handle()));
  EXPECT_EQ(p.agent.next_poll_us(), kNever);
  const AgentView before = view(p, 2);
  p.q.run_until(p.q.now() + 5 * kSecond);
  p.agent.poll();
  EXPECT_TRUE(view(p, 2) == before);
}

TEST(AgentDeadlineTest, HeartbeatIsDueOnePeriodAfterTheLast) {
  net::AgentConfig acfg;
  acfg.heartbeat_period_us = 10'000;
  DrillPlane p(22, 0, 0, acfg);
  EXPECT_EQ(p.agent.next_poll_us(), 10'000);  // connected at 0
  poll_quietly_until_due(p, 0);
  const std::int64_t sent0 = p.tr.stats().bytes_accepted;
  p.agent.poll();
  EXPECT_EQ(p.agent.stats().heartbeats_sent, 1u);
  EXPECT_GT(p.tr.stats().bytes_accepted, sent0);
  EXPECT_EQ(p.agent.next_poll_us(), 20'000);
}

TEST(AgentDeadlineTest, LeaseExpiryThenFallbackDecay) {
  net::AgentConfig acfg;
  acfg.fallback_decay_interval_us = 2'000;
  DrillPlane p(23, 5'000, 50'000, acfg);
  start_acked_flows(p, 2);
  ASSERT_TRUE(p.run_until(false, [&] { return p.agent.lease_fresh(); }));
  p.tr.set_black_hole(true);
  p.step();  // drain what was already in flight
  // Lease armed: due one microsecond past the deadline (poll tests >).
  EXPECT_EQ(p.agent.next_poll_us(), p.agent.lease_deadline_us() + 1);
  poll_quietly_until_due(p, 2);
  const double r1 = p.agent.rate_bps(1);
  p.agent.poll();
  ASSERT_EQ(p.agent.conn_state(), net::ConnState::kDegraded);
  EXPECT_EQ(p.agent.stats().lease_expiries, 1u);
  EXPECT_EQ(p.agent.rate_bps(1), r1 / 2);  // first decay tick: at once

  // Degraded: the next decay tick is one interval later.
  EXPECT_EQ(p.agent.next_poll_us(), p.now_us() + 2'000);
  poll_quietly_until_due(p, 2);
  p.agent.poll();
  EXPECT_EQ(p.agent.rate_bps(1), r1 / 4);
}

TEST(AgentDeadlineTest, PeerTimeoutIsDueJustPastTheTimeout) {
  net::AgentConfig acfg;
  acfg.peer_timeout_us = 30'000;
  DrillPlane p(24, 0, 0, acfg);
  // Connected at virtual 0, nothing received yet: the timeout runs from
  // the connect.
  EXPECT_EQ(p.agent.next_poll_us(), 30'001);
  start_acked_flows(p, 1);
  const std::int64_t due = p.last_rx_us + 30'000 + 1;  // poll tests >
  EXPECT_EQ(p.agent.next_poll_us(), due);
  poll_quietly_until_due(p, 1);
  p.agent.poll();
  EXPECT_EQ(p.agent.stats().disconnects, 1u);
  EXPECT_EQ(p.agent.conn_state(), net::ConnState::kDisconnected);
  EXPECT_EQ(p.agent.next_poll_us(), kNever);  // lost for good
}

TEST(AgentDeadlineTest, SilentServiceTimesOutAnAgentConnectedAtZero) {
  // The service never sends a byte (no flows, no heartbeats): the agent,
  // connected at virtual 0, gives it up one microsecond past the peer
  // timeout.
  net::AgentConfig acfg;
  acfg.peer_timeout_us = 30'000;
  DrillPlane p(27, 0, 0, acfg);
  ASSERT_EQ(p.now_us(), 0);
  p.q.run_until(30'000 * kMicrosecond);
  p.agent.poll();
  EXPECT_EQ(p.agent.conn_state(), net::ConnState::kConnected);
  EXPECT_EQ(p.agent.stats().bytes_in, 0u);
  p.q.run_until(30'001 * kMicrosecond);
  p.agent.poll();
  EXPECT_EQ(p.agent.stats().disconnects, 1u);
  EXPECT_EQ(p.agent.conn_state(), net::ConnState::kDisconnected);
}

TEST(AgentDeadlineTest, ReconnectAttemptIsDueAfterTheBackoff) {
  net::AgentConfig acfg;
  acfg.auto_reconnect = true;
  acfg.reconnect_seed = 7;
  acfg.fallback_decay_interval_us = 1'000'000;
  DrillPlane p(25, 0, 0, acfg);
  start_acked_flows(p, 2);
  p.tr.kill_all();
  ASSERT_TRUE(p.tr.readable(p.agent.handle()));  // the reset is news
  p.agent.poll();
  ASSERT_EQ(p.agent.conn_state(), net::ConnState::kReconnecting);
  // Flows present and no decay tick run yet: due at once.
  EXPECT_LE(p.agent.next_poll_us(), p.now_us());
  const double r1 = p.agent.rate_bps(1);
  p.agent.poll();
  EXPECT_EQ(p.agent.rate_bps(1), r1 / 2);
  EXPECT_EQ(p.agent.stats().reconnect_attempts, 0u);
  // Now the backoff (5-10 ms) comes before the next decay tick (1 s).
  const std::int64_t due = p.agent.next_poll_us();
  EXPECT_GE(due, p.now_us() + 5'000);
  EXPECT_LT(due, p.now_us() + 10'000);
  poll_quietly_until_due(p, 2);
  p.agent.poll();
  EXPECT_EQ(p.agent.stats().reconnect_attempts, 1u);
  EXPECT_EQ(p.agent.stats().reconnects, 1u);
  EXPECT_EQ(p.agent.conn_state(), net::ConnState::kConnected);
  EXPECT_EQ(p.agent.stats().replayed_starts, 2u);
}

TEST(AgentDeadlineTest, UnackedFlowIsDueOnePeriodAfterRegistering) {
  DrillPlane p(26, 0, 0, {});
  start_acked_flows(p, 2);
  p.tr.set_partition_up(true);  // flow 3's start evaporates
  const std::int64_t registered = p.now_us();
  ASSERT_TRUE(p.agent.flowlet_start(3, 4, 9));
  p.agent.poll();
  EXPECT_EQ(p.agent.next_poll_us(), registered + net::kReregisterPeriodUs);
  poll_quietly_until_due(p, 3);
  p.agent.poll();
  EXPECT_EQ(p.agent.stats().registration_refreshes, 1u);
  EXPECT_EQ(p.agent.stats().replayed_starts, 3u);
  EXPECT_EQ(p.agent.next_poll_us(), p.now_us() + net::kReregisterPeriodUs);
}

// ---------------------------------------------------------------------
// Sharded services on virtual time: on the SimTransport each shard gets
// a loop of its own, the one event queue steps them all, and shard
// events are applied by direct call -- so a multi-shard service runs
// the handlers a threaded daemon runs, and replays exactly.
// ---------------------------------------------------------------------

struct ShardPlane {
  static constexpr std::int64_t kStepUs = 500;

  EventQueue q;
  SimTransport tr{q};
  SimLoop loop{tr};
  topo::ClosTopology clos{{.racks = 4,
                           .servers_per_rack = 4,
                           .spines = 2,
                           .fabric_link_bps = 20e9}};
  // Threshold 0: every rate change is notified.
  core::Allocator alloc{clos.graph().capacities(), {.threshold = 0.0}};
  net::AllocatorService svc;
  std::vector<std::unique_ptr<net::EndpointAgent>> agents;
  // FNV-1a over every (virtual time, agent, key, code) rate application.
  std::uint64_t hash = 1469598103934665603ULL;

  // Agent i lands on shard i % num_shards (round-robin accept). With
  // heartbeat_us > 0 every shard runs its own heartbeat timer.
  ShardPlane(int num_shards, int num_agents, std::int64_t heartbeat_us = 0)
      : svc(loop, alloc, clos, [&] {
          net::ServerConfig c;
          c.transport = &tr;
          c.tcp_port = 0;
          c.iteration_period_us = 0;
          c.num_shards = num_shards;
          c.heartbeat_period_us = heartbeat_us;
          c.rate_lease_us = 10 * heartbeat_us;
          c.peer_timeout_us = 10 * heartbeat_us;
          return c;
        }()) {
    for (int i = 0; i < num_agents; ++i) {
      net::AgentConfig ac;
      ac.transport = &tr;
      ac.heartbeat_period_us = heartbeat_us;
      agents.push_back(std::make_unique<net::EndpointAgent>(ac));
      EXPECT_TRUE(agents.back()->connect_tcp("sim", svc.tcp_port()));
      agents.back()->set_rate_callback(
          [this, i](std::uint32_t key, double, std::uint16_t code) {
            for (const std::uint64_t v :
                 {static_cast<std::uint64_t>(q.now()),
                  static_cast<std::uint64_t>(i), std::uint64_t{key},
                  std::uint64_t{code}}) {
              hash = (hash ^ v) * 1099511628211ULL;
            }
          });
    }
  }

  // An allocation round (if `round`), one step of virtual time, then a
  // poll sweep over the agents in index order.
  void step(bool round = true) {
    if (round) svc.run_allocation_round();
    loop.run_once(kStepUs);
    for (auto& a : agents) a->poll();
  }

  // Flowlet churn with a disconnect: every agent registers four flows,
  // then each churns one flow every ten rounds, and the last agent
  // hangs up halfway.
  void churn(int rounds) {
    const int hosts = clos.num_hosts();
    Rng rng(99);
    std::uint32_t next_key = 1;
    std::vector<std::vector<std::uint32_t>> live(agents.size());
    const auto start_one = [&](std::size_t a) {
      const auto src = static_cast<std::uint16_t>(rng.below(hosts));
      auto dst = static_cast<std::uint16_t>(rng.below(hosts - 1));
      if (dst >= src) ++dst;
      ASSERT_TRUE(agents[a]->flowlet_start(next_key, src, dst));
      live[a].push_back(next_key++);
    };
    for (int r = 0; r < rounds; ++r) {
      for (std::size_t a = 0; a < agents.size(); ++a) {
        if (!agents[a]->connected()) continue;
        if (r == 0) {
          for (int f = 0; f < 4; ++f) start_one(a);
        } else if (r % 10 == 0) {
          const auto pick = rng.below(live[a].size());
          ASSERT_TRUE(agents[a]->flowlet_end(live[a][pick]));
          live[a][pick] = live[a].back();
          live[a].pop_back();
          start_one(a);
        }
        agents[a]->flush();
      }
      if (r == rounds / 2) agents.back()->disconnect();
      step();
    }
  }
};

// Two agents on different shards register key 42 in the same virtual
// instant. The allocation side is the authority: exactly the first
// frame to arrive wins -- whichever shard carries it -- the allocator
// holds the key once, on the winner's route, and the loser is rolled
// back without ever seeing a rate.
TEST(SimShardTest, CrossShardDuplicateKeyGoesToTheFirstArrival) {
  struct Claim {
    std::uint16_t src;
    std::uint16_t dst;
  };
  const Claim claims[2] = {{0, 5}, {1, 9}};
  for (const int first : {0, 1}) {
    SCOPED_TRACE("first sender: agent " + std::to_string(first));
    ShardPlane p(2, 2);
    for (int i = 0; i < 4; ++i) p.step(false);  // connections adopted
    ASSERT_EQ(p.svc.num_connections(), 2u);
    const int second = 1 - first;
    for (const int a : {first, second}) {
      ASSERT_TRUE(p.agents[a]->flowlet_start(42, claims[a].src,
                                             claims[a].dst));
      p.agents[a]->flush();
    }
    for (int i = 0; i < 40; ++i) p.step();

    ASSERT_EQ(p.alloc.num_active_flowlets(), 1u);
    ASSERT_TRUE(p.alloc.is_active(42));
    const auto want = p.clos.host_path(p.clos.host(claims[first].src),
                                       p.clos.host(claims[first].dst), 42);
    const core::NumProblem& prob = p.alloc.problem();
    for (std::size_t slot = 0; slot < prob.num_slots(); ++slot) {
      const core::FlowView f = prob.flow(static_cast<core::FlowIndex>(slot));
      if (!f.active()) continue;
      ASSERT_EQ(f.route().size(), want.size());
      for (std::size_t l = 0; l < want.size(); ++l) {
        EXPECT_EQ(f.route()[l], want[l].value());
      }
    }
    EXPECT_GT(p.agents[first]->rate_bps(42), 0.0);
    EXPECT_EQ(p.agents[second]->rate_bps(42), 0.0);
    EXPECT_GE(p.svc.stats().rejected_starts, 1u);

    // The loser's end names a key its shard no longer owns.
    const std::uint64_t unknown0 = p.svc.stats().unknown_ends;
    ASSERT_TRUE(p.agents[second]->flowlet_end(42));
    p.agents[second]->flush();
    for (int i = 0; i < 4; ++i) p.step();
    EXPECT_EQ(p.svc.stats().unknown_ends, unknown0 + 1);
    EXPECT_TRUE(p.alloc.is_active(42));
  }
}

// The allocator sees the same calls in the same order whatever the
// shard count, so without service heartbeats (one timer per shard) the
// rate trajectory is the one-shard trajectory, instant for instant.
TEST(SimShardTest, ShardCountLeavesTheTrajectoryUnchanged) {
  struct Outcome {
    std::uint64_t hash;
    std::uint64_t events;
    net::ServiceStats st;
  };
  const auto run = [](int shards) {
    ShardPlane p(shards, 6);
    p.churn(120);
    return Outcome{p.hash, p.q.processed(), p.svc.stats()};
  };
  const Outcome one = run(0);
  EXPECT_GT(one.st.flowlet_starts, 24u);
  EXPECT_GT(one.st.flowlet_ends, 0u);
  EXPECT_GT(one.st.updates_sent, 0u);
  for (const int shards : {2, 3}) {
    SCOPED_TRACE(std::to_string(shards) + " shards");
    const Outcome o = run(shards);
    EXPECT_EQ(o.hash, one.hash);
    EXPECT_EQ(o.events, one.events);
    EXPECT_EQ(o.st.flowlet_starts, one.st.flowlet_starts);
    EXPECT_EQ(o.st.flowlet_ends, one.st.flowlet_ends);
    EXPECT_EQ(o.st.updates_sent, one.st.updates_sent);
    EXPECT_EQ(o.st.updates_orphaned, one.st.updates_orphaned);
    EXPECT_EQ(o.st.closed, one.st.closed);
  }
}

// With heartbeats each shard ticks on its own loop, so the shard count
// shapes the trajectory -- and each configuration still replays
// bit-identically.
TEST(SimShardTest, EveryShardCountReplaysBitIdentically) {
  const auto run = [](int shards) {
    ShardPlane p(shards, 6, 2'000);
    p.churn(120);
    EXPECT_GT(p.svc.stats().heartbeats_sent, 0u);
    return std::pair{p.hash, p.q.processed()};
  };
  for (const int shards : {0, 2, 3}) {
    SCOPED_TRACE(std::to_string(shards) + " shards");
    EXPECT_EQ(run(shards), run(shards));
  }
}

// A rate update for a key no service connection owns (registered on the
// allocator directly) dies in the fanout, counted, never silent.
TEST(SimShardTest, UpdateWithoutAnOwnerIsCountedOrphaned) {
  ShardPlane p(2, 1);
  const auto path = p.clos.host_path(p.clos.host(2), p.clos.host(7), 77);
  ASSERT_TRUE(p.alloc.flowlet_start(
      77, std::vector<LinkId>(path.begin(), path.end())));
  ASSERT_TRUE(p.agents[0]->flowlet_start(1, 0, 5));
  p.agents[0]->flush();
  for (int i = 0; i < 4; ++i) p.step(false);
  ASSERT_EQ(p.alloc.num_active_flowlets(), 2u);
  p.step();  // one round: one update per flow
  const net::ServiceStats st = p.svc.stats();
  EXPECT_EQ(st.updates_orphaned, 1u);
  EXPECT_EQ(st.updates_sent, 1u);
  EXPECT_GT(p.agents[0]->rate_bps(1), 0.0);
}

}  // namespace
}  // namespace ft::sim
