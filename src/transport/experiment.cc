#include "transport/experiment.h"

#include <unordered_map>

#include "transport/cubic.h"
#include "transport/dctcp.h"
#include "transport/pfabric.h"
#include "transport/xcp.h"

namespace ft::transport {

const char* scheme_name(Scheme s) {
  switch (s) {
    case Scheme::kFlowtune:
      return "Flowtune";
    case Scheme::kDctcp:
      return "DCTCP";
    case Scheme::kPfabric:
      return "pFabric";
    case Scheme::kSfqCodel:
      return "sfqCoDel";
    case Scheme::kXcp:
      return "XCP";
    case Scheme::kTcp:
      return "TCP";
  }
  return "?";
}

sim::QueueFactory make_queue_factory(const ExpConfig& cfg) {
  // Buffer thresholds are specified per 10 Gbit/s and scale with link
  // capacity (a 40G fabric port gets 4x the buffer/threshold), matching
  // the usual practice in the compared papers.
  switch (cfg.scheme) {
    case Scheme::kDctcp:
      return [cfg](double cap) -> std::unique_ptr<sim::QueueDisc> {
        const double scale = cap / 10e9;
        return std::make_unique<sim::DropTailQueue>(
            static_cast<std::int64_t>(
                static_cast<double>(cfg.droptail_limit_bytes) * scale),
            static_cast<std::int64_t>(
                static_cast<double>(cfg.dctcp_marking_bytes) * scale));
      };
    case Scheme::kPfabric:
      return [cfg](double cap) -> std::unique_ptr<sim::QueueDisc> {
        const double scale = cap / 10e9;
        return std::make_unique<sim::PfabricQueue>(
            static_cast<std::int64_t>(
                static_cast<double>(cfg.pfabric_limit_bytes) * scale));
      };
    case Scheme::kSfqCodel:
      return [cfg](double cap) -> std::unique_ptr<sim::QueueDisc> {
        sim::SfqCodelConfig qc = cfg.sfq_codel;
        qc.limit_bytes = static_cast<std::int64_t>(
            static_cast<double>(qc.limit_bytes) * cap / 10e9);
        return std::make_unique<sim::SfqCodelQueue>(qc);
      };
    case Scheme::kXcp:
      return [cfg](double cap) -> std::unique_ptr<sim::QueueDisc> {
        sim::XcpConfig xc;
        xc.limit_bytes = static_cast<std::int64_t>(
            static_cast<double>(cfg.droptail_limit_bytes) * cap / 10e9);
        return std::make_unique<sim::XcpQueue>(cap, xc);
      };
    case Scheme::kFlowtune:
    case Scheme::kTcp:
      return [cfg](double cap) -> std::unique_ptr<sim::QueueDisc> {
        return std::make_unique<sim::DropTailQueue>(
            static_cast<std::int64_t>(
                static_cast<double>(cfg.droptail_limit_bytes) * cap /
                10e9));
      };
  }
  FT_CHECK(false);
}

TcpConfig make_data_tcp_config(Scheme s) {
  TcpConfig c;
  switch (s) {
    case Scheme::kPfabric:
      // Fixed window ~ 1.2x BDP; tiny RTOs (~3 RTTs) per the pFabric
      // paper.
      c.fixed_window_pkts = 24;
      c.min_rto = 60 * kMicrosecond;
      c.max_rto = 480 * kMicrosecond;
      break;
    case Scheme::kXcp:
      // ns2-era initial window; XCP's explicit feedback must grow the
      // window from there, which is what makes it conservative in
      // handing out bandwidth (§6.3).
      c.init_cwnd_pkts = 2.0;
      c.min_rto = 1 * kMillisecond;
      c.max_rto = 32 * kMillisecond;
      break;
    case Scheme::kFlowtune:
      // "Servers start a regular TCP connection" (§6.2): the ns2-era
      // initial window of 2 carries the first packets until the first
      // rate update arrives (a few 10 us iterations later), after which
      // the window opens fully and pacing takes over.
      c.init_cwnd_pkts = 2.0;
      c.min_rto = 1 * kMillisecond;
      c.max_rto = 32 * kMillisecond;
      break;
    case Scheme::kDctcp:
    case Scheme::kSfqCodel:
    case Scheme::kTcp:
      // ns2 default initial window, as in the paper's simulations.
      c.init_cwnd_pkts = 2.0;
      c.min_rto = 1 * kMillisecond;
      c.max_rto = 32 * kMillisecond;
      break;
  }
  return c;
}

std::unique_ptr<TcpFlow> make_flow(Scheme s, FlowRegistry& reg,
                                   const topo::ClosTopology& clos,
                                   std::int32_t src, std::int32_t dst,
                                   std::uint64_t hash) {
  const auto fwd = clos.host_path(clos.host(src), clos.host(dst), hash);
  const auto rev = clos.host_path(clos.host(dst), clos.host(src), hash);
  const TcpConfig tc = make_data_tcp_config(s);
  switch (s) {
    case Scheme::kDctcp:
      return std::make_unique<DctcpFlow>(reg, src, dst, fwd, rev, tc);
    case Scheme::kPfabric:
      return std::make_unique<PfabricFlow>(reg, src, dst, fwd, rev, tc);
    case Scheme::kSfqCodel:
      return std::make_unique<CubicFlow>(reg, src, dst, fwd, rev, tc);
    case Scheme::kXcp:
      return std::make_unique<XcpFlow>(reg, src, dst, fwd, rev, tc);
    case Scheme::kFlowtune:
    case Scheme::kTcp:
      return std::make_unique<TcpFlow>(reg, src, dst, fwd, rev, tc);
  }
  FT_CHECK(false);
}

namespace {

// Drives the workload: creates a transport flow per flowlet event and
// records completions.
class ExperimentDriver : public sim::EventHandler {
 public:
  ExperimentDriver(const ExpConfig& cfg, const topo::ClosTopology& clos,
                   sim::Simulator& s, FlowRegistry& reg,
                   ControlPlane* control)
      : cfg_(cfg),
        clos_(clos),
        sim_(s),
        reg_(reg),
        control_(control),
        gen_([&] {
          wl::TrafficConfig tc = cfg.traffic;
          tc.num_hosts = clos.config().num_hosts();
          tc.host_link_bps = clos.config().host_link_bps;
          return tc;
        }()),
        stats_(clos) {
    if (control_ != nullptr) {
      control_->on_rate = [this](std::uint32_t key, double rate_bps) {
        const auto it = key_to_flow_.find(key);
        if (it != key_to_flow_.end()) it->second->set_pacing_rate(rate_bps);
      };
    }
  }

  void start() {
    next_ = gen_.next();
    schedule_next();
  }

  void on_event(std::uint32_t, std::uint64_t) override {
    launch_flow(next_);
    next_ = gen_.next();
    schedule_next();
  }

  [[nodiscard]] sim::FlowStats& stats() { return stats_; }
  [[nodiscard]] std::size_t started() const { return started_; }
  [[nodiscard]] std::size_t completed() const { return completed_; }
  [[nodiscard]] std::size_t unfinished() const {
    return started_ - completed_measured_ - ignored_;
  }
  [[nodiscard]] std::int64_t goodput_bytes() const {
    return goodput_bytes_;
  }

 private:
  void schedule_next() {
    const Time end = cfg_.warmup + cfg_.duration;
    if (next_.start >= end) return;  // stop launching at window end
    sim_.events.schedule(next_.start, this, 0, 0);
  }

  void launch_flow(const wl::FlowletEvent& ev) {
    ++started_;
    // The ECMP hash must be identical at the endpoint and the allocator;
    // both use the flow key, which is the registry id assigned to the
    // flow created next.
    auto probe = make_flow(cfg_.scheme, reg_, clos_, ev.src_host,
                           ev.dst_host, reg_.next_id());
    TcpFlow* flow = probe.get();
    flows_.push_back(std::move(probe));
    const std::uint32_t id = flow->flow_id();
    const bool measured = sim_.now() >= cfg_.warmup;
    if (measured) {
      stats_.on_flow_start(id, ev.bytes, ev.src_host, ev.dst_host,
                           sim_.now());
    } else {
      ++ignored_;
    }
    flow->on_complete = [this, id, flow, measured, ev] {
      ++completed_;
      if (measured) {
        ++completed_measured_;
        stats_.on_flow_complete(id, sim_.now());
      }
      if (control_ != nullptr) {
        control_->flowlet_end(id, ev.src_host);
        key_to_flow_.erase(id);
      }
    };
    flow->on_acked_bytes = [this](std::int64_t b, Time now) {
      if (now >= cfg_.warmup && now < cfg_.warmup + cfg_.duration) {
        goodput_bytes_ += b;
      }
    };
    if (control_ != nullptr) {
      key_to_flow_.emplace(id, flow);
      control_->flowlet_start(id, ev.src_host, ev.dst_host, ev.bytes);
    }
    flow->app_send(ev.bytes);
    flow->app_close();
  }

  const ExpConfig& cfg_;
  const topo::ClosTopology& clos_;
  sim::Simulator& sim_;
  FlowRegistry& reg_;
  ControlPlane* control_;
  wl::TrafficGenerator gen_;
  wl::FlowletEvent next_{};
  sim::FlowStats stats_;
  std::vector<std::unique_ptr<TcpFlow>> flows_;
  std::unordered_map<std::uint32_t, TcpFlow*> key_to_flow_;
  std::size_t started_ = 0;
  std::size_t completed_ = 0;
  std::size_t completed_measured_ = 0;
  std::size_t ignored_ = 0;
  std::int64_t goodput_bytes_ = 0;
};

}  // namespace

ExpResult run_experiment(const ExpConfig& cfg) {
  topo::ClosConfig tcfg = cfg.topo;
  tcfg.with_allocator = cfg.scheme == Scheme::kFlowtune;
  topo::ClosTopology clos(tcfg);

  sim::Simulator s;
  sim::Network net(s.events, s.pool, clos, make_queue_factory(cfg));
  FlowRegistry reg(net);

  std::unique_ptr<ControlPlane> control;
  if (cfg.scheme == Scheme::kFlowtune) {
    control = std::make_unique<ControlPlane>(reg, clos, cfg.allocator);
  }

  ExperimentDriver driver(cfg, clos, s, reg, control.get());
  driver.start();

  // Warmup, then measure.
  s.run_until(cfg.warmup);
  const std::int64_t dropped0 = net.total_dropped_bytes();

  sim::PathDelaySampler sampler(net, cfg.queue_sample_period, 32,
                                cfg.traffic.seed);
  sampler.start(cfg.warmup + cfg.duration);

  const std::uint64_t updates0 =
      control ? control->allocator().stats().updates_emitted : 0;
  std::int64_t to_alloc0 = 0, from_alloc0 = 0;
  const auto control_bytes = [&](std::int64_t* to, std::int64_t* from) {
    if (!control) return;
    *to = 0;
    *from = 0;
    const auto& g = clos.graph();
    for (const auto& l : g.links()) {
      const auto st = g.node(l.src).type;
      const auto dt = g.node(l.dst).type;
      if (dt == topo::NodeType::kAllocator) {
        *to += net.link(l.id).stats().tx_bytes;
      } else if (st == topo::NodeType::kAllocator) {
        *from += net.link(l.id).stats().tx_bytes;
      }
    }
  };
  control_bytes(&to_alloc0, &from_alloc0);

  s.run_until(cfg.warmup + cfg.duration);
  const std::int64_t dropped1 = net.total_dropped_bytes();
  std::int64_t to_alloc1 = 0, from_alloc1 = 0;
  control_bytes(&to_alloc1, &from_alloc1);
  const std::uint64_t updates1 =
      control ? control->allocator().stats().updates_emitted : 0;

  // Drain stragglers (their completions still count for flows that
  // started in the window).
  s.run_until(cfg.warmup + cfg.duration + cfg.drain);

  ExpResult r;
  r.scheme = scheme_name(cfg.scheme);
  r.load = cfg.traffic.load;
  const sim::FlowStats& fs = driver.stats();
  for (std::int32_t b = 0; b < wl::kNumSizeBuckets; ++b) {
    const auto& sampler_b = fs.bucket(static_cast<wl::SizeBucket>(b));
    r.buckets[static_cast<std::size_t>(b)] = BucketResult{
        sampler_b.p99(), sampler_b.p50(), sampler_b.count()};
  }
  r.fairness_score = fs.fairness_score();
  r.p99_queue_2hop_us = sampler.two_hop().p99();
  r.p99_queue_4hop_us = sampler.four_hop().p99();
  const double dur_sec = to_sec(cfg.duration);
  r.dropped_gbps =
      static_cast<double>(dropped1 - dropped0) * 8.0 / dur_sec / 1e9;
  r.goodput_gbps =
      static_cast<double>(driver.goodput_bytes()) * 8.0 / dur_sec / 1e9;
  r.flows_started = driver.started();
  r.flows_completed = fs.completed();
  r.flows_unfinished = driver.unfinished();
  r.mean_norm_fct = fs.mean_normalized_fct();
  r.to_allocator_gbps =
      static_cast<double>(to_alloc1 - to_alloc0) * 8.0 / dur_sec / 1e9;
  r.from_allocator_gbps =
      static_cast<double>(from_alloc1 - from_alloc0) * 8.0 / dur_sec / 1e9;
  r.allocator_updates = updates1 - updates0;
  r.events = s.events.processed();
  r.peak_pending_events = s.events.peak_pending();
  return r;
}

}  // namespace ft::transport
