// Tests for the virtual-time transport stack: EventQueue determinism
// guarantees (FIFO ties, seed-replay stability), SimTransport stream
// semantics (latency, EOF, backpressure, faults), SimLoop timers, and
// the ControlPlaneHarness -- the real AllocatorService + EndpointAgents
// on virtual time, including the two-run bit-identical-trajectory
// regression and the virtual-clock ports of the recovery drills (lease
// expiry, reconnect backoff spread) that the wall-clock recovery tests
// can only assert with tolerance bands.
#include <gtest/gtest.h>

#include <cerrno>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/messages.h"
#include "net/client.h"
#include "net/transport.h"
#include "sim/control_plane_harness.h"
#include "sim/sim_transport.h"

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
  h.kill_connections();
  const ConvergeStats st = h.run_to_convergence();
  ASSERT_TRUE(st.converged);
  EXPECT_EQ(st.trajectory_hash, 0x44c5cf4e525d3e6cULL);
  EXPECT_EQ(st.events_processed, 4027u);
  EXPECT_EQ(st.updates_sent, 4251u);
  EXPECT_EQ(st.rounds, 273u);
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
  h.kill_connections();
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
  h.set_black_hole(true);
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

}  // namespace
}  // namespace ft::sim
