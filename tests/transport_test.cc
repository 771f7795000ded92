// Tests for the transport layer: TCP correctness (delivery, completion
// timing, loss recovery), pacing, DCTCP marking response, pFabric
// priority behaviour, XCP convergence, and the Flowtune control plane.
#include <gtest/gtest.h>

#include <bit>
#include <cerrno>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

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

// One SimTransport connection between host 0 and the allocator node
// whose directions ride TcpFlows: up carries client -> server bytes,
// down server -> client. Every step checks the byte-conservation
// identity.
class CarriedStreamTest : public ::testing::Test {
 protected:
  CarriedStreamTest()
      : t_(1 << 20, 0, with_allocator()),
        up_(control_flow(0, -1)),
        down_(control_flow(-1, 0)),
        tr_(t_.s.events) {
    // Count what each TcpFlow delivers, then hand it to the transport.
    for (auto [carrier, landed] : {std::pair{&up_, &up_landed_},
                                   std::pair{&down_, &down_landed_}}) {
      carrier->flow().on_delivered =
          [landed, inner = carrier->flow().on_delivered](std::int64_t n) {
            *landed += n;
            inner(n);
          };
    }
    int port = 0;
    listener_ = tr_.listen_tcp(0, false, &port);
    tr_.set_next_dial_carriers(&up_, &down_);
    client_ = tr_.connect_tcp("allocator", port);
    step(from_us(10));  // the SYN lands after the link latency
    server_ = tr_.accept(listener_);
    EXPECT_GE(client_, 0);
    EXPECT_GE(server_, 0);
  }

  static topo::ClosConfig with_allocator() {
    topo::ClosConfig cfg = TestNet::default_cfg();
    cfg.with_allocator = true;
    return cfg;
  }

  std::unique_ptr<TcpFlow> control_flow(std::int32_t src, std::int32_t dst) {
    const NodeId host = t_.clos.host(0);
    const bool up = src == 0;
    TcpConfig cc;
    cc.min_rto = from_us(20);
    cc.max_rto = from_us(30);
    return std::make_unique<TcpFlow>(
        t_.reg, src, dst,
        up ? t_.clos.to_allocator_path(host, 0)
           : t_.clos.from_allocator_path(host, 0),
        up ? t_.clos.from_allocator_path(host, 0)
           : t_.clos.to_allocator_path(host, 0),
        cc);
  }

  // Every byte write() accepted has exactly one fate.
  [[nodiscard]] bool balanced() const {
    const sim::SimTransportStats& st = tr_.stats();
    return st.bytes_accepted ==
           st.bytes_delivered + st.bytes_blackholed +
               st.bytes_partitioned_up + st.bytes_partitioned_down +
               st.bytes_dropped_sieve + st.bytes_dropped_closed +
               tr_.stranded_bytes();
  }

  void step(Time dt) {
    t_.s.run_until(t_.s.now() + dt);
    EXPECT_TRUE(balanced()) << "at " << to_us(t_.s.now()) << " us";
  }

  static std::vector<std::uint8_t> pattern(std::size_t n, int salt) {
    std::vector<std::uint8_t> v(n);
    for (std::size_t i = 0; i < n; ++i) {
      v[i] = static_cast<std::uint8_t>((i * 7 + static_cast<std::size_t>(
                                                    salt)) % 251);
    }
    return v;
  }

  std::int64_t write_all(int h, const std::vector<std::uint8_t>& v) {
    return tr_.write(h, v.data(), v.size());
  }

  // Appends what `h` can read now; returns read()'s last result.
  std::int64_t read_into(int h, std::vector<std::uint8_t>& out) {
    std::uint8_t buf[4096];
    for (;;) {
      const std::int64_t n = tr_.read(h, buf, sizeof buf);
      if (n <= 0) return n;
      out.insert(out.end(), buf, buf + n);
    }
  }

  TestNet t_;
  TcpCarrier up_;
  TcpCarrier down_;
  std::int64_t up_landed_ = 0;
  std::int64_t down_landed_ = 0;
  sim::SimTransport tr_;
  int listener_ = -1;
  int client_ = -1;
  int server_ = -1;
};

TEST_F(CarriedStreamTest, BytesLandInOrderOnlyAsTheTcpFlowDelivers) {
  std::vector<std::uint8_t> sent_up;
  for (const std::size_t n : {1000u, 3000u, 17u}) {
    const auto chunk = pattern(n, static_cast<int>(sent_up.size()));
    ASSERT_EQ(write_all(client_, chunk), static_cast<std::int64_t>(n));
    sent_up.insert(sent_up.end(), chunk.begin(), chunk.end());
  }
  const auto sent_down = pattern(2500, 3);
  ASSERT_EQ(write_all(server_, sent_down), 2500);
  std::vector<std::uint8_t> got_up, got_down;
  for (int i = 0; i < 150; ++i) {
    step(from_us(7));
    read_into(server_, got_up);
    read_into(client_, got_down);
    // Readable exactly when, and as far as, the TcpFlow delivered.
    ASSERT_EQ(static_cast<std::int64_t>(got_up.size()), up_landed_);
    ASSERT_EQ(static_cast<std::int64_t>(got_down.size()), down_landed_);
  }
  EXPECT_EQ(got_up, sent_up);
  EXPECT_EQ(got_down, sent_down);
  EXPECT_EQ(tr_.stranded_bytes(), 0);
  EXPECT_EQ(tr_.stats().bytes_delivered, 4017 + 2500);
}

TEST_F(CarriedStreamTest, WritePastTheStreamBufferReturnsEagain) {
  tr_.set_stream_buf_bytes(4096);
  const auto big = pattern(10'000, 1);
  ASSERT_EQ(write_all(client_, big), 4096);
  errno = 0;
  EXPECT_EQ(write_all(client_, big), -1);
  EXPECT_EQ(errno, EAGAIN);
  // Once the carried bytes land and are read, the window reopens.
  std::vector<std::uint8_t> got;
  while (got.size() < 4096) {
    step(from_us(7));
    read_into(server_, got);
    ASSERT_LT(t_.s.now(), from_ms(1));
  }
  EXPECT_EQ(write_all(client_, big), 4096);
}

TEST_F(CarriedStreamTest, EofComesOnlyAfterTheCarriedBytesLand) {
  const auto data = pattern(20'000, 2);
  ASSERT_EQ(write_all(client_, data), 20'000);
  tr_.close(client_);  // the FIN overtakes the carried bytes
  std::vector<std::uint8_t> got;
  std::int64_t last = -1;
  while (last != 0) {
    step(from_us(7));
    last = read_into(server_, got);
    if (last == 0) break;
    ASSERT_EQ(last, -1);
    ASSERT_EQ(errno, EAGAIN) << "at " << got.size() << " bytes";
    ASSERT_LT(t_.s.now(), from_ms(1));
  }
  EXPECT_EQ(got, data);
}

TEST_F(CarriedStreamTest, ClosingWithBytesInFlightCountsThemDropped) {
  const auto data = pattern(30'000, 4);
  ASSERT_EQ(write_all(client_, data), 30'000);
  tr_.close(server_);  // bytes landing from now on die at a closed door
  step(from_us(14));
  const std::int64_t landed = up_landed_;
  EXPECT_GT(landed, 0);
  EXPECT_LT(landed, 30'000);
  EXPECT_EQ(tr_.stats().bytes_dropped_closed, landed);
  // The pair goes with the client's close; its queue residue with it.
  tr_.close(client_);
  EXPECT_TRUE(balanced());
  EXPECT_EQ(tr_.stats().bytes_dropped_closed, 30'000);
  EXPECT_EQ(tr_.stranded_bytes(), 0);
  // The TcpFlow still delivers; the bytes were already counted.
  for (int i = 0; i < 40; ++i) step(from_us(7));
  EXPECT_EQ(up_landed_, 30'000);
  EXPECT_EQ(tr_.stats().bytes_dropped_closed, 30'000);
  EXPECT_EQ(tr_.stats().bytes_delivered, 0);
}

TEST_F(CarriedStreamTest, PartitionDownLosesOnlyDownBytesAndBalances) {
  tr_.set_partition_down(true);
  ASSERT_EQ(write_all(server_, pattern(1500, 5)), 1500);
  const auto up = pattern(900, 6);
  ASSERT_EQ(write_all(client_, up), 900);
  std::vector<std::uint8_t> got_up, got_down;
  for (int i = 0; i < 60; ++i) {
    step(from_us(7));
    read_into(server_, got_up);
    read_into(client_, got_down);
  }
  EXPECT_EQ(tr_.stats().bytes_partitioned_down, 1500);
  EXPECT_EQ(down_landed_, 0);  // nothing reached the down TcpFlow
  EXPECT_TRUE(got_down.empty());
  EXPECT_EQ(got_up, up);
}

TEST(ControlPlaneTest, EndToEndRateConvergence) {
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
  ControlPlane control(reg, clos, ControlPlaneConfig{});

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
  control.on_rate = [&](std::uint32_t key, double rate_bps) {
    by_key[key]->set_pacing_rate(rate_bps);
  };
  for (auto* f : {f1.get(), f2.get()}) {
    control.flowlet_start(f->flow_id(), f->src_host(), f->dst_host());
    f->app_send(1 << 30);
  }
  s.events.run_until(from_ms(2));
  // Both paced to ~(0.99 * 10G) / 2.
  EXPECT_NEAR(f1->pacing_rate(), 0.99 * 5e9, 0.99 * 5e9 * 0.05);
  EXPECT_NEAR(f2->pacing_rate(), 0.99 * 5e9, 0.99 * 5e9 * 0.05);
  EXPECT_GT(control.iterations(), 100u);
}

TEST(ControlPlaneTest, WeightedFlowsGetWeightedRates) {
  // The start notification carries a weight; the allocator must split
  // the shared bottleneck proportionally (weighted proportional
  // fairness, §2 "different flows can have different utility functions").
  topo::ClosConfig cfg = TestNet::default_cfg();
  cfg.with_allocator = true;
  topo::ClosTopology clos(cfg);
  sim::Simulator s;
  sim::Network net(s.events, s.pool, clos, [](double) {
    return std::make_unique<sim::DropTailQueue>(256 * 1538);
  });
  FlowRegistry reg(net);
  ControlPlane control(reg, clos, ControlPlaneConfig{});

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
  control.on_rate = [&](std::uint32_t key, double rate_bps) {
    by_key[key]->set_pacing_rate(rate_bps);
  };
  const std::uint16_t weights[2] = {1000, 3000};  // 1 : 3
  TcpFlow* flows[2] = {f1.get(), f2.get()};
  for (int i = 0; i < 2; ++i) {
    control.flowlet_start(flows[i]->flow_id(), flows[i]->src_host(),
                          flows[i]->dst_host(), 0, weights[i]);
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
// cost, which moves only when the queue's entries do. The Flowtune row
// was recorded with the shipped AllocatorService and EndpointAgents
// talking the shipped wire format over simulated TCP.
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
      {Scheme::kFlowtune, 664, 601, 4574, 0x5be8ace7098a44ecULL, 511070, 219},
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
