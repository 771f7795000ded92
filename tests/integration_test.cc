// Cross-module integration tests: full packet-level experiments
// exercising the paper's end-to-end claims at miniature scale, plus
// failure injection (allocator outage, extreme loss).
#include <gtest/gtest.h>

#include <memory>

#include "sim/simulator.h"
#include "topo/clos.h"
#include "transport/control.h"
#include "transport/experiment.h"

namespace ft::transport {
namespace {

ExpConfig mini_config(Scheme scheme, double load, std::uint64_t seed = 3) {
  ExpConfig cfg;
  cfg.topo.racks = 4;
  cfg.topo.servers_per_rack = 4;
  cfg.topo.spines = 2;
  cfg.topo.fabric_link_bps = 20e9;
  cfg.traffic.load = load;
  cfg.traffic.workload = wl::Workload::kWeb;
  cfg.traffic.seed = seed;
  cfg.scheme = scheme;
  cfg.warmup = from_ms(1);
  cfg.duration = from_ms(6);
  cfg.drain = from_ms(8);
  return cfg;
}

TEST(IntegrationTest, FlowtuneKeepsQueuesShorterThanDctcp) {
  // Result (G) at miniature scale.
  const ExpResult ft_r = run_experiment(mini_config(Scheme::kFlowtune, 0.6));
  const ExpResult dc_r = run_experiment(mini_config(Scheme::kDctcp, 0.6));
  EXPECT_LT(ft_r.p99_queue_4hop_us * 3, dc_r.p99_queue_4hop_us);
  EXPECT_LT(ft_r.p99_queue_4hop_us, 40.0);
}

TEST(IntegrationTest, DropRateOrdering) {
  // Result (H): sfqCoDel and pFabric drop; Flowtune and XCP do not.
  const double high = 0.8;
  const ExpResult ft_r =
      run_experiment(mini_config(Scheme::kFlowtune, high));
  const ExpResult pf = run_experiment(mini_config(Scheme::kPfabric, high));
  const ExpResult sc =
      run_experiment(mini_config(Scheme::kSfqCodel, high));
  const ExpResult xcp = run_experiment(mini_config(Scheme::kXcp, high));
  EXPECT_LT(ft_r.dropped_gbps, 0.05);
  EXPECT_LT(xcp.dropped_gbps, 0.05);
  EXPECT_GT(pf.dropped_gbps, 10 * (ft_r.dropped_gbps + 0.01));
  EXPECT_GT(sc.dropped_gbps, 10 * (ft_r.dropped_gbps + 0.01));
}

TEST(IntegrationTest, FlowtuneShortFlowTailBeatsDctcp) {
  // Result (F) at miniature scale: p99 normalized FCT for <=10-packet
  // flows is several times lower under Flowtune.
  const ExpResult ft_r =
      run_experiment(mini_config(Scheme::kFlowtune, 0.6));
  const ExpResult dc = run_experiment(mini_config(Scheme::kDctcp, 0.6));
  const auto& ft_b =
      ft_r.buckets[static_cast<std::size_t>(wl::SizeBucket::k1To10)];
  const auto& dc_b =
      dc.buckets[static_cast<std::size_t>(wl::SizeBucket::k1To10)];
  ASSERT_GT(ft_b.count, 50u);
  ASSERT_GT(dc_b.count, 50u);
  EXPECT_LT(ft_b.p99_norm_fct * 2, dc_b.p99_norm_fct);
}

TEST(IntegrationTest, NormalizedFctNeverBelowIdeal) {
  // The ideal-FCT model must be a true lower bound: no flow completes
  // faster than the empty-network time.
  for (const Scheme s : {Scheme::kFlowtune, Scheme::kPfabric}) {
    const ExpResult r = run_experiment(mini_config(s, 0.3));
    for (const auto& b : r.buckets) {
      if (b.count == 0) continue;
      EXPECT_GE(b.p50_norm_fct, 0.999) << r.scheme;
    }
  }
}

TEST(IntegrationTest, ExperimentsAreDeterministic) {
  const ExpResult a = run_experiment(mini_config(Scheme::kFlowtune, 0.5));
  const ExpResult b = run_experiment(mini_config(Scheme::kFlowtune, 0.5));
  EXPECT_EQ(a.flows_started, b.flows_started);
  EXPECT_EQ(a.flows_completed, b.flows_completed);
  EXPECT_DOUBLE_EQ(a.goodput_gbps, b.goodput_gbps);
  EXPECT_DOUBLE_EQ(a.dropped_gbps, b.dropped_gbps);
  for (std::int32_t i = 0; i < wl::kNumSizeBuckets; ++i) {
    EXPECT_DOUBLE_EQ(a.buckets[i].p99_norm_fct, b.buckets[i].p99_norm_fct);
  }
}

TEST(IntegrationTest, ControlOverheadGrowsWithLoad) {
  const ExpResult low = run_experiment(mini_config(Scheme::kFlowtune, 0.2));
  const ExpResult high =
      run_experiment(mini_config(Scheme::kFlowtune, 0.8));
  EXPECT_GT(high.to_allocator_gbps, low.to_allocator_gbps);
  EXPECT_GT(high.from_allocator_gbps, low.from_allocator_gbps);
  // Note: measured on the allocator's links, both directions include
  // TCP ACKs of the opposite channel, so the paper's from >> to
  // asymmetry (message bytes only) is asserted at the message level in
  // harness_test.cc instead.
  EXPECT_GT(high.from_allocator_gbps, 0.8 * high.to_allocator_gbps);
}

// ---------------------------------------------------------------------
// Failure injection
// ---------------------------------------------------------------------

TEST(FailureTest, AllocatorOutageLeavesRatesUsable) {
  // §2 fault tolerance: "if the allocator fails ... endpoint congestion
  // control takes over, using the previously allocated rates as a
  // starting point". Endpoints keep their last paced rate; traffic
  // continues without a stall.
  topo::ClosConfig tcfg;
  tcfg.racks = 2;
  tcfg.servers_per_rack = 4;
  tcfg.spines = 2;
  tcfg.fabric_link_bps = 20e9;
  tcfg.with_allocator = true;
  topo::ClosTopology clos(tcfg);
  sim::Simulator s;
  sim::Network net(s.events, s.pool, clos, [](double) {
    return std::make_unique<sim::DropTailQueue>(512 * 1538);
  });
  FlowRegistry reg(net);
  ControlPlane control(reg, clos, ControlPlaneConfig{});

  TcpConfig tc;
  tc.min_rto = from_ms(1);
  const std::uint32_t key = reg.next_id();
  const auto fwd = clos.host_path(clos.host(0), clos.host(6), key);
  const auto rev = clos.host_path(clos.host(6), clos.host(0), key);
  TcpFlow flow(reg, 0, 6, fwd, rev, tc);
  std::int64_t delivered = 0;
  flow.on_delivered = [&](std::int64_t n) { delivered += n; };
  control.on_rate = [&](std::uint32_t k, double rate_bps) {
    if (k == key) flow.set_pacing_rate(rate_bps);
  };
  control.flowlet_start(key, 0, 6);
  flow.app_send(std::int64_t{1} << 30);

  s.run_until(from_ms(2));
  const double rate_before = flow.pacing_rate();
  EXPECT_GT(rate_before, 9e9 * 0.9);  // ~ full host link

  // Allocator "crashes": the service goes away, no more updates are
  // sent. Existing allocations remain in force at the endpoint.
  control.stop();
  const std::int64_t at_crash = delivered;
  s.run_until(from_ms(6));
  const double rate_after = static_cast<double>(delivered - at_crash) *
                            8.0 / to_sec(from_ms(4));
  EXPECT_GT(rate_after, rate_before * 0.9);  // no stall, no collapse
}

TEST(FailureTest, TcpSurvivesNearTotalBufferCollapse) {
  // Extreme loss: 2-packet queues everywhere. The transfer must still
  // complete via retransmission (liveness under pathological loss).
  topo::ClosConfig tcfg;
  tcfg.racks = 2;
  tcfg.servers_per_rack = 2;
  tcfg.spines = 1;
  tcfg.fabric_link_bps = 20e9;
  topo::ClosTopology clos(tcfg);
  sim::Simulator s;
  sim::Network net(s.events, s.pool, clos, [](double) {
    return std::make_unique<sim::DropTailQueue>(2 * 1538);
  });
  FlowRegistry reg(net);
  TcpConfig tc;
  tc.min_rto = from_us(200);
  tc.max_rto = from_ms(2);
  const auto fwd = clos.host_path(clos.host(0), clos.host(3), 0);
  const auto rev = clos.host_path(clos.host(3), clos.host(0), 0);
  TcpFlow flow(reg, 0, 3, fwd, rev, tc);
  bool done = false;
  std::int64_t delivered = 0;
  flow.on_delivered = [&](std::int64_t n) { delivered += n; };
  flow.on_complete = [&] { done = true; };
  flow.app_send(400'000);
  flow.app_close();
  s.run_until(from_ms(400));
  EXPECT_TRUE(done);
  EXPECT_EQ(delivered, 400'000);
  EXPECT_GT(flow.retransmits(), 0u);
}

TEST(FailureTest, LateRateUpdatesForDeadFlowsAreIgnored) {
  // Rate updates racing with flowlet completion must not crash or
  // resurrect state (the allocator may emit updates for a flow whose
  // end notification is still in flight).
  topo::ClosConfig tcfg;
  tcfg.racks = 2;
  tcfg.servers_per_rack = 4;
  tcfg.spines = 2;
  tcfg.fabric_link_bps = 20e9;
  ExpConfig cfg;
  cfg.topo = tcfg;
  cfg.traffic.load = 0.7;
  cfg.traffic.workload = wl::Workload::kWeb;
  cfg.traffic.seed = 11;
  cfg.scheme = Scheme::kFlowtune;
  cfg.warmup = from_ms(1);
  cfg.duration = from_ms(5);
  // Many short flows ending constantly: exercises the race. Passing ==
  // not crashing and completing most flows.
  const ExpResult r = run_experiment(cfg);
  EXPECT_GT(r.flows_completed,
            0.8 * static_cast<double>(r.flows_started));
}

}  // namespace
}  // namespace ft::transport
