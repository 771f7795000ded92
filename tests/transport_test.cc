// Tests for the transport layer: TCP correctness (delivery, completion
// timing, loss recovery), pacing, DCTCP marking response, pFabric
// priority behaviour, XCP convergence, and the Flowtune control plane.
#include <gtest/gtest.h>

#include <bit>
#include <memory>

#include "common/ratecode.h"
#include "sim/simulator.h"
#include "topo/clos.h"
#include "transport/control.h"
#include "transport/cubic.h"
#include "transport/dctcp.h"
#include "transport/experiment.h"
#include "transport/pfabric.h"
#include "transport/tcp.h"
#include "transport/xcp.h"

namespace ft::transport {
namespace {

struct TestNet {
  topo::ClosTopology clos;
  sim::Simulator s;
  sim::Network net;
  FlowRegistry reg;

  explicit TestNet(std::int64_t queue_limit = 1 << 20,
                   std::int64_t ecn_threshold = 0,
                   topo::ClosConfig cfg = default_cfg())
      : clos(cfg),
        net(s.events, s.pool, clos,
            [queue_limit, ecn_threshold](double) {
              return std::make_unique<sim::DropTailQueue>(queue_limit,
                                                          ecn_threshold);
            }),
        reg(net) {}

  static topo::ClosConfig default_cfg() {
    topo::ClosConfig cfg;
    cfg.racks = 2;
    cfg.servers_per_rack = 4;
    cfg.spines = 2;
    cfg.fabric_link_bps = 20e9;
    return cfg;
  }

  template <class F>
  std::unique_ptr<F> make_flow(std::int32_t src, std::int32_t dst,
                               TcpConfig cfg = TcpConfig()) {
    const auto fwd = clos.host_path(clos.host(src), clos.host(dst), 0);
    const auto rev = clos.host_path(clos.host(dst), clos.host(src), 0);
    return std::make_unique<F>(reg, src, dst, fwd, rev, cfg);
  }
};

TEST(TcpTest, TransfersAllBytesExactly) {
  TestNet t;
  auto flow = t.make_flow<TcpFlow>(0, 5);
  std::int64_t delivered = 0;
  bool done = false;
  flow->on_delivered = [&](std::int64_t n) { delivered += n; };
  flow->on_complete = [&] { done = true; };
  flow->app_send(100'000);
  flow->app_close();
  t.s.run_until(from_ms(50));
  EXPECT_TRUE(done);
  EXPECT_EQ(delivered, 100'000);
  EXPECT_EQ(flow->retransmits(), 0u);  // empty network: no losses
}

TEST(TcpTest, SingleSegmentFlowCompletesNearIdeal) {
  TestNet t;
  auto flow = t.make_flow<TcpFlow>(0, 1);  // same rack, 2 hops
  Time done_at = -1;
  flow->on_complete = [&] { done_at = t.s.now(); };
  flow->app_send(1000);
  flow->app_close();
  t.s.run_until(from_ms(5));
  ASSERT_GT(done_at, 0);
  // Ideal: serialization + 14us RTT-ish. Allow small slack, but the
  // result must be well under one ms (no spurious timeouts).
  EXPECT_LT(done_at, from_us(30));
}

TEST(TcpTest, RecoversFromDrops) {
  // 10-packet queue forces slow-start overshoot drops.
  TestNet t(10 * 1538);
  auto flow = t.make_flow<TcpFlow>(0, 4);  // cross-rack
  bool done = false;
  std::int64_t delivered = 0;
  flow->on_delivered = [&](std::int64_t n) { delivered += n; };
  flow->on_complete = [&] { done = true; };
  flow->app_send(3'000'000);
  flow->app_close();
  t.s.run_until(from_ms(200));
  EXPECT_TRUE(done);
  EXPECT_EQ(delivered, 3'000'000);
  EXPECT_GT(flow->retransmits(), 0u);  // drops actually happened
}

TEST(TcpTest, SlowStartRampsExponentially) {
  TestNet t;
  auto flow = t.make_flow<TcpFlow>(0, 4);
  flow->app_send(10'000'000);
  flow->app_close();
  // After a few RTTs the window should have grown well past the initial
  // 10 packets.
  t.s.run_until(from_us(200));
  EXPECT_GT(flow->cwnd_bytes(), 40.0 * 1460);
}

TEST(TcpTest, FairShareOnSharedBottleneck) {
  TestNet t(64 * 1538);
  auto a = t.make_flow<TcpFlow>(0, 5);
  auto b = t.make_flow<TcpFlow>(1, 5);  // same destination downlink
  std::int64_t got_a = 0, got_b = 0;
  a->on_delivered = [&](std::int64_t n) { got_a += n; };
  b->on_delivered = [&](std::int64_t n) { got_b += n; };
  a->app_send(1 << 30);
  b->app_send(1 << 30);
  t.s.run_until(from_ms(50));
  const double ratio =
      static_cast<double>(got_a) / static_cast<double>(got_b);
  EXPECT_GT(ratio, 0.4);
  EXPECT_LT(ratio, 2.5);
  // Bottleneck well utilized (NewReno sawtooth keeps it below 100%).
  EXPECT_GT(static_cast<double>(got_a + got_b) * 8 / to_sec(from_ms(50)),
            0.7 * 10e9);
}

TEST(TcpTest, PacingAchievesConfiguredRate) {
  TestNet t;
  auto flow = t.make_flow<TcpFlow>(0, 4);
  std::int64_t delivered = 0;
  flow->on_delivered = [&](std::int64_t n) { delivered += n; };
  flow->set_pacing_rate(2e9);
  flow->app_send(1 << 30);
  t.s.run_until(from_ms(20));
  const double rate = static_cast<double>(delivered) * 8 / to_sec(from_ms(20));
  EXPECT_NEAR(rate, 2e9, 2e9 * 0.06);
}

TEST(TcpTest, PacingRateChangeTakesEffect) {
  TestNet t;
  auto flow = t.make_flow<TcpFlow>(0, 4);
  std::int64_t delivered = 0;
  flow->on_delivered = [&](std::int64_t n) { delivered += n; };
  flow->set_pacing_rate(1e9);
  flow->app_send(1 << 30);
  t.s.run_until(from_ms(10));
  const std::int64_t at_10ms = delivered;
  flow->set_pacing_rate(5e9);
  t.s.run_until(from_ms(20));
  const double rate2 =
      static_cast<double>(delivered - at_10ms) * 8 / to_sec(from_ms(10));
  EXPECT_NEAR(rate2, 5e9, 5e9 * 0.08);
}

TEST(DctcpTest, AlphaTracksMarkingAndCwndShrinks) {
  // ECN threshold low enough that a fast sender sees marks.
  TestNet t(1 << 20, 20 * 1538);
  auto flow = t.make_flow<DctcpFlow>(0, 4);
  auto cross = t.make_flow<DctcpFlow>(1, 4);  // share the downlink
  flow->app_send(1 << 28);
  cross->app_send(1 << 28);
  t.s.run_until(from_ms(20));
  EXPECT_GT(flow->alpha(), 0.0);
  // Queue must be held near the marking threshold, not at the limit: the
  // two flows together would fill a plain drop-tail queue.
  EXPECT_EQ(flow->retransmits() + cross->retransmits(), 0u);
}

TEST(DctcpTest, KeepsQueueNearThresholdVsTcp) {
  const std::int64_t K = 20 * 1538;
  auto run = [&](bool dctcp) {
    TestNet t(1 << 20, dctcp ? K : 0);
    std::unique_ptr<TcpFlow> f;
    if (dctcp) {
      f = t.make_flow<DctcpFlow>(0, 4);
    } else {
      f = t.make_flow<TcpFlow>(0, 4);
    }
    f->app_send(1 << 28);
    // A lone sender's bursts queue at its own uplink (the first 10G
    // link); sample there during steady state.
    const LinkId up = t.clos.host_up_link(t.clos.host(0));
    std::int64_t max_q = 0;
    for (int i = 0; i < 200; ++i) {
      t.s.run_until(from_us(100) * (i + 1) + from_ms(2));
      max_q = std::max(max_q, t.net.link(up).queued_bytes());
    }
    return max_q;
  };
  const std::int64_t q_dctcp = run(true);
  const std::int64_t q_tcp = run(false);
  EXPECT_LT(q_dctcp, 3 * K);       // held near K
  EXPECT_GT(q_tcp, 5 * q_dctcp);   // plain TCP fills the buffer
}

TEST(PfabricTest, ShortFlowPreemptsLongFlow) {
  auto run_with = [&](bool pfabric) {
    topo::ClosConfig cfg = TestNet::default_cfg();
    topo::ClosTopology clos(cfg);
    sim::Simulator s;
    sim::Network net(
        s.events, s.pool, clos, [&](double) -> std::unique_ptr<sim::QueueDisc> {
          if (pfabric) {
            return std::make_unique<sim::PfabricQueue>(24 * 1538);
          }
          return std::make_unique<sim::DropTailQueue>(64 * 1538);
        });
    FlowRegistry reg(net);
    TcpConfig tc;
    if (pfabric) {
      tc.fixed_window_pkts = 24;
      tc.min_rto = from_us(60);
      tc.max_rto = from_us(480);
    }
    // Two long flows from different sources converge on host 5's 10G
    // downlink (the shared bottleneck where the contested queue builds);
    // a short flow from a third source arrives later.
    const auto mk = [&](std::int32_t src,
                        std::int32_t dst) -> std::unique_ptr<TcpFlow> {
      const auto fwd = clos.host_path(clos.host(src), clos.host(dst), 0);
      const auto rev = clos.host_path(clos.host(dst), clos.host(src), 0);
      if (pfabric) {
        return std::make_unique<PfabricFlow>(reg, src, dst, fwd, rev, tc);
      }
      return std::make_unique<TcpFlow>(reg, src, dst, fwd, rev, tc);
    };
    auto long_a = mk(0, 5);
    auto long_b = mk(2, 5);
    auto shrt = mk(1, 5);
    long_a->app_send(1 << 26);
    long_b->app_send(1 << 26);
    s.events.run_until(from_ms(5));
    Time short_done = -1;
    shrt->on_complete = [&] { short_done = s.events.now(); };
    const Time short_start = s.events.now();
    shrt->app_send(10 * 1460);
    shrt->app_close();
    s.events.run_until(from_ms(40));
    return short_done < 0 ? kTimeNever : short_done - short_start;
  };
  const Time with_pfabric = run_with(true);
  const Time with_droptail = run_with(false);
  ASSERT_NE(with_pfabric, kTimeNever);
  ASSERT_NE(with_droptail, kTimeNever);
  // Priority scheduling must beat FIFO behind a full drop-tail queue.
  EXPECT_LT(with_pfabric, with_droptail / 2);
  EXPECT_LT(with_pfabric, from_us(100));
}

TEST(XcpTest, ConvergesToLineRateWithoutLoss) {
  topo::ClosTopology clos(TestNet::default_cfg());
  sim::Simulator s;
  sim::Network net(s.events, s.pool, clos, [](double cap) {
    return std::make_unique<sim::XcpQueue>(cap);
  });
  FlowRegistry reg(net);
  const auto fwd = clos.host_path(clos.host(0), clos.host(4), 0);
  const auto rev = clos.host_path(clos.host(4), clos.host(0), 0);
  XcpFlow flow(reg, 0, 4, fwd, rev, TcpConfig());
  std::int64_t delivered = 0;
  flow.on_delivered = [&](std::int64_t n) { delivered += n; };
  flow.app_send(1 << 30);
  s.events.run_until(from_ms(30));
  // Last 10ms throughput close to line rate.
  std::int64_t before = delivered;
  s.events.run_until(from_ms(40));
  const double rate =
      static_cast<double>(delivered - before) * 8 / to_sec(from_ms(10));
  EXPECT_GT(rate, 0.7 * 10e9);
  EXPECT_EQ(flow.retransmits(), 0u);
}

TEST(CubicTest, TransfersAndRecovers) {
  TestNet t(32 * 1538);  // small queue to force Cubic's loss response
  auto flow = t.make_flow<CubicFlow>(0, 4);
  bool done = false;
  std::int64_t delivered = 0;
  flow->on_delivered = [&](std::int64_t n) { delivered += n; };
  flow->on_complete = [&] { done = true; };
  flow->app_send(20'000'000);
  flow->app_close();
  t.s.run_until(from_ms(120));
  EXPECT_TRUE(done);
  EXPECT_EQ(delivered, 20'000'000);
  EXPECT_GT(flow->retransmits(), 0u);
}

TEST(CubicTest, SustainsHighUtilization) {
  TestNet t(256 * 1538);
  auto flow = t.make_flow<CubicFlow>(0, 4);
  std::int64_t delivered = 0;
  flow->on_delivered = [&](std::int64_t n) { delivered += n; };
  flow->app_send(1 << 30);
  // Skip the initial slow-start overshoot recovery; measure steady
  // state.
  t.s.run_until(from_ms(15));
  const std::int64_t at_15ms = delivered;
  t.s.run_until(from_ms(40));
  const double rate = static_cast<double>(delivered - at_15ms) * 8 /
                      to_sec(from_ms(25));
  EXPECT_GT(rate, 0.8 * 10e9);
}

TEST(DctcpTest, TwoFlowsShareFairly) {
  TestNet t(1 << 20, 20 * 1538);
  auto a = t.make_flow<DctcpFlow>(0, 5);
  auto b = t.make_flow<DctcpFlow>(1, 5);
  std::int64_t got_a = 0, got_b = 0;
  a->on_delivered = [&](std::int64_t n) { got_a += n; };
  b->on_delivered = [&](std::int64_t n) { got_b += n; };
  a->app_send(1 << 30);
  b->app_send(1 << 30);
  t.s.run_until(from_ms(40));
  const double ratio =
      static_cast<double>(got_a) / static_cast<double>(got_b);
  EXPECT_GT(ratio, 0.5);
  EXPECT_LT(ratio, 2.0);
  EXPECT_GT(static_cast<double>(got_a + got_b) * 8 / to_sec(from_ms(40)),
            0.75 * 10e9);
}

TEST(XcpTest, TwoFlowsConvergeToFairShare) {
  // XCP's shuffling moves bandwidth between flows even at full
  // utilization; a latecomer must converge to ~half.
  topo::ClosTopology clos(TestNet::default_cfg());
  sim::Simulator s;
  sim::Network net(s.events, s.pool, clos, [](double cap) {
    return std::make_unique<sim::XcpQueue>(cap);
  });
  FlowRegistry reg(net);
  const auto mk = [&](std::int32_t src, std::int32_t dst) {
    const auto fwd = clos.host_path(clos.host(src), clos.host(dst), 0);
    const auto rev = clos.host_path(clos.host(dst), clos.host(src), 0);
    return std::make_unique<XcpFlow>(reg, src, dst, fwd, rev,
                                     TcpConfig());
  };
  auto a = mk(0, 5);
  a->app_send(1 << 30);
  s.events.run_until(from_ms(10));
  auto b = mk(1, 5);
  std::int64_t got_b = 0;
  b->on_delivered = [&](std::int64_t n) { got_b += n; };
  b->app_send(1 << 30);
  s.events.run_until(from_ms(25));
  // Measure flow b over a late window.
  const std::int64_t before = got_b;
  s.events.run_until(from_ms(35));
  const double rate_b =
      static_cast<double>(got_b - before) * 8 / to_sec(from_ms(10));
  EXPECT_GT(rate_b, 0.3 * 10e9);
  EXPECT_LT(rate_b, 0.7 * 10e9);
}

TEST(ControlChannelTest, DeliversTypedMessagesInOrder) {
  topo::ClosConfig cfg = TestNet::default_cfg();
  cfg.with_allocator = true;
  TestNet t(1 << 20, 0, cfg);
  TcpConfig cc;
  cc.min_rto = from_us(20);
  cc.max_rto = from_us(30);
  auto up_flow = std::make_unique<TcpFlow>(
      t.reg, 0, -1, t.clos.to_allocator_path(t.clos.host(0), 0),
      t.clos.from_allocator_path(t.clos.host(0), 0), cc);
  ControlChannel ch(std::move(up_flow));
  std::vector<std::uint32_t> got_starts, got_ends;
  ch.on_start = [&](const core::FlowletStartMsg& m) {
    got_starts.push_back(m.flow_key);
  };
  ch.on_end = [&](const core::FlowletEndMsg& m) {
    got_ends.push_back(m.flow_key);
  };
  core::FlowletStartMsg s1;
  s1.flow_key = 101;
  s1.src_host = 0;
  s1.dst_host = 3;
  ch.send_start(s1);
  core::FlowletEndMsg e1;
  e1.flow_key = 101;
  ch.send_end(e1);
  core::FlowletStartMsg s2;
  s2.flow_key = 202;
  ch.send_start(s2);
  t.s.run_until(from_ms(1));
  ASSERT_EQ(got_starts.size(), 2u);
  EXPECT_EQ(got_starts[0], 101u);
  EXPECT_EQ(got_starts[1], 202u);
  ASSERT_EQ(got_ends.size(), 1u);
  EXPECT_EQ(got_ends[0], 101u);
  EXPECT_EQ(ch.payload_bytes_sent(), 16 + 4 + 16);
}

TEST(AllocatorAppTest, EndToEndRateConvergence) {
  // Two Flowtune flows from different sources into one destination: the
  // allocator must pace both to ~half the downlink within a short time.
  topo::ClosConfig cfg = TestNet::default_cfg();
  cfg.with_allocator = true;
  topo::ClosTopology clos(cfg);
  sim::Simulator s;
  sim::Network net(s.events, s.pool, clos, [](double) {
    return std::make_unique<sim::DropTailQueue>(256 * 1538);
  });
  FlowRegistry reg(net);
  AllocatorApp app(reg, clos, AllocatorAppConfig{});
  app.start();

  TcpConfig tc;
  tc.min_rto = from_ms(1);
  const auto mk = [&](std::int32_t src, std::int32_t dst) {
    const std::uint32_t key = reg.next_id();
    const auto fwd = clos.host_path(clos.host(src), clos.host(dst), key);
    const auto rev = clos.host_path(clos.host(dst), clos.host(src), key);
    return std::make_unique<TcpFlow>(reg, src, dst, fwd, rev, tc);
  };
  auto f1 = mk(0, 6);
  auto f2 = mk(1, 6);
  std::unordered_map<std::uint32_t, TcpFlow*> by_key{
      {f1->flow_id(), f1.get()}, {f2->flow_id(), f2.get()}};
  app.on_rate_update = [&](std::int32_t, const core::RateUpdateMsg& m) {
    by_key[m.flow_key]->set_pacing_rate(decode_rate(m.rate_code));
  };
  for (auto* f : {f1.get(), f2.get()}) {
    core::FlowletStartMsg m;
    m.flow_key = f->flow_id();
    m.src_host = static_cast<std::uint16_t>(f->src_host());
    m.dst_host = static_cast<std::uint16_t>(f->dst_host());
    app.notify_start(f->src_host(), m);
    f->app_send(1 << 30);
  }
  s.events.run_until(from_ms(2));
  // Both paced to ~(0.99 * 10G) / 2.
  EXPECT_NEAR(f1->pacing_rate(), 0.99 * 5e9, 0.99 * 5e9 * 0.05);
  EXPECT_NEAR(f2->pacing_rate(), 0.99 * 5e9, 0.99 * 5e9 * 0.05);
  EXPECT_GT(app.iterations(), 100u);
}

TEST(AllocatorAppTest, WeightedFlowsGetWeightedRates) {
  // The 16-byte start notification carries a weight; the allocator must
  // split the shared bottleneck proportionally (weighted proportional
  // fairness, §2 "different flows can have different utility functions").
  topo::ClosConfig cfg = TestNet::default_cfg();
  cfg.with_allocator = true;
  topo::ClosTopology clos(cfg);
  sim::Simulator s;
  sim::Network net(s.events, s.pool, clos, [](double) {
    return std::make_unique<sim::DropTailQueue>(256 * 1538);
  });
  FlowRegistry reg(net);
  AllocatorApp app(reg, clos, AllocatorAppConfig{});
  app.start();

  TcpConfig tc;
  tc.min_rto = from_ms(1);
  const auto mk = [&](std::int32_t src, std::int32_t dst) {
    const std::uint32_t key = reg.next_id();
    const auto fwd = clos.host_path(clos.host(src), clos.host(dst), key);
    const auto rev = clos.host_path(clos.host(dst), clos.host(src), key);
    return std::make_unique<TcpFlow>(reg, src, dst, fwd, rev, tc);
  };
  auto f1 = mk(0, 6);
  auto f2 = mk(1, 6);
  std::unordered_map<std::uint32_t, TcpFlow*> by_key{
      {f1->flow_id(), f1.get()}, {f2->flow_id(), f2.get()}};
  app.on_rate_update = [&](std::int32_t, const core::RateUpdateMsg& m) {
    by_key[m.flow_key]->set_pacing_rate(decode_rate(m.rate_code));
  };
  const std::uint16_t weights[2] = {1000, 3000};  // 1 : 3
  TcpFlow* flows[2] = {f1.get(), f2.get()};
  for (int i = 0; i < 2; ++i) {
    core::FlowletStartMsg m;
    m.flow_key = flows[i]->flow_id();
    m.src_host = static_cast<std::uint16_t>(flows[i]->src_host());
    m.dst_host = static_cast<std::uint16_t>(flows[i]->dst_host());
    m.weight_milli = weights[i];
    app.notify_start(flows[i]->src_host(), m);
    flows[i]->app_send(1 << 30);
  }
  s.events.run_until(from_ms(2));
  const double total = 0.99 * 10e9;
  EXPECT_NEAR(f1->pacing_rate(), total / 4, total / 4 * 0.05);
  EXPECT_NEAR(f2->pacing_rate(), 3 * total / 4, total / 4 * 0.05);
}

// A small six-scheme run: 2x4 hosts, Web load 0.4, 17 ms of virtual time.
ExpConfig smoke_config(Scheme scheme) {
  ExpConfig cfg;
  cfg.topo.racks = 2;
  cfg.topo.servers_per_rack = 4;
  cfg.topo.spines = 2;
  cfg.topo.fabric_link_bps = 20e9;
  cfg.traffic.load = 0.4;
  cfg.traffic.workload = wl::Workload::kWeb;
  cfg.traffic.seed = 5;
  cfg.scheme = scheme;
  cfg.warmup = from_ms(1);
  cfg.duration = from_ms(8);
  cfg.drain = from_ms(8);
  return cfg;
}

TEST(ExperimentTest, SmokeAllSchemes) {
  for (const Scheme scheme :
       {Scheme::kFlowtune, Scheme::kDctcp, Scheme::kPfabric,
        Scheme::kSfqCodel, Scheme::kXcp, Scheme::kTcp}) {
    const ExpResult r = run_experiment(smoke_config(scheme));
    EXPECT_GT(r.flows_started, 50u) << scheme_name(scheme);
    EXPECT_GT(r.flows_completed, 0.8 * static_cast<double>(r.flows_started))
        << scheme_name(scheme);
    EXPECT_GT(r.goodput_gbps, 0.0) << scheme_name(scheme);
    if (scheme == Scheme::kFlowtune) {
      EXPECT_GT(r.from_allocator_gbps, 0.0);
      EXPECT_GT(r.to_allocator_gbps, 0.0);
    }
  }
}

// FNV-1a over the bit patterns of every ExpResult field that
// SmokeOutputsArePinned does not compare on its own.
std::uint64_t result_hash(const ExpResult& r) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a offset basis
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;  // FNV-1a prime
    }
  };
  const auto mix_double = [&mix](double d) {
    mix(std::bit_cast<std::uint64_t>(d));
  };
  mix_double(r.load);
  for (const BucketResult& b : r.buckets) {
    mix_double(b.p99_norm_fct);
    mix_double(b.p50_norm_fct);
    mix(b.count);
  }
  mix_double(r.fairness_score);
  mix_double(r.p99_queue_2hop_us);
  mix_double(r.p99_queue_4hop_us);
  mix_double(r.dropped_gbps);
  mix_double(r.goodput_gbps);
  mix(r.flows_unfinished);
  mix_double(r.mean_norm_fct);
  mix_double(r.to_allocator_gbps);
  mix_double(r.from_allocator_gbps);
  return h;
}

// Exact packet-sim outputs of the smoke config. The counts and hashes
// were recorded with a plain single-heap event queue; lanes, lazy timers
// and the 4-ary heaps must keep its (time, seq) event order and so every
// output bit. `events` and `peak_pending_events` pin the simulator's
// cost, which moves only when the queue's entries do.
TEST(ExperimentTest, SmokeOutputsArePinned) {
  struct Pin {
    Scheme scheme;
    std::size_t started;
    std::size_t completed;
    std::uint64_t updates;
    std::uint64_t hash;
    std::uint64_t events;
    std::uint64_t peak_pending;
  };
  const Pin pins[] = {
      {Scheme::kFlowtune, 664, 601, 4600, 0x0846c6b4eb2ee06eULL, 538529, 237},
      {Scheme::kDctcp, 664, 601, 0, 0xed7a86b91399dbc0ULL, 413325, 217},
      {Scheme::kPfabric, 664, 599, 0, 0x436409a949e18125ULL, 372992, 117},
      {Scheme::kSfqCodel, 664, 599, 0, 0x88eb26fcd5228108ULL, 404079, 516},
      {Scheme::kXcp, 664, 601, 0, 0xb9defe181342245bULL, 413304, 201},
      {Scheme::kTcp, 664, 600, 0, 0x8782a69e982a35eeULL, 369673, 265},
  };
  for (const Pin& pin : pins) {
    const ExpResult r = run_experiment(smoke_config(pin.scheme));
    const char* name = scheme_name(pin.scheme);
    EXPECT_EQ(r.flows_started, pin.started) << name;
    EXPECT_EQ(r.flows_completed, pin.completed) << name;
    EXPECT_EQ(r.allocator_updates, pin.updates) << name;
    EXPECT_EQ(result_hash(r), pin.hash) << name;
    EXPECT_EQ(r.events, pin.events) << name;
    EXPECT_EQ(r.peak_pending_events, pin.peak_pending) << name;
  }
}

}  // namespace
}  // namespace ft::transport
