// Reproduces Figure 4 / §6.3 (result B): convergence to a fair
// allocation. Five senders share one receiver; every 10 ms a sender
// starts a flow (up to five), then every 10 ms one stops. The figure
// plots each flow's throughput in 100 us bins over 90 ms.
//
// Paper shape: Flowtune reaches the 1/N fair share within ~100 us of
// every change (allocation itself within 20 us); DCTCP takes several
// milliseconds and keeps fluctuating; pFabric starves all but the
// highest-priority flow; sfqCoDel shares quickly but delivers bursty
// application throughput; XCP hands out bandwidth so conservatively that
// flows stay slow for most of the experiment.
//
// Exits non-zero when Flowtune misses the fair share after any join;
// the other schemes only report.
#include <array>
#include <cstdio>
#include <memory>
#include <unordered_map>
#include <vector>

#include "bench_util.h"
#include "sim/simulator.h"
#include "topo/clos.h"
#include "transport/control.h"
#include "transport/experiment.h"

namespace {

using namespace ft;
using namespace ft::transport;

constexpr Time kBin = 100 * kMicrosecond;
constexpr Time kEventGap = 10 * kMillisecond;
constexpr std::int32_t kSenders = 5;
constexpr Time kHorizon = 2 * kSenders * kEventGap;  // 100 ms

struct FlowTrace {
  std::vector<double> gbps;  // per bin
};

struct RunOutput {
  std::array<FlowTrace, kSenders> flows;
  std::array<Time, 2 * kSenders - 1> event_times;
};

class Fig4Driver : public sim::EventHandler {
 public:
  Fig4Driver(Scheme scheme, sim::Simulator& s,
             const topo::ClosTopology& clos, FlowRegistry& reg,
             ControlPlane* control)
      : scheme_(scheme), s_(s), clos_(clos), reg_(reg), control_(control) {
    for (auto& f : out_.flows) {
      f.gbps.assign(static_cast<std::size_t>(kHorizon / kBin), 0.0);
    }
    if (control_ != nullptr) {
      control_->on_rate = [this](std::uint32_t key, double rate_bps) {
        const auto it = by_key_.find(key);
        if (it != by_key_.end()) it->second->set_pacing_rate(rate_bps);
      };
    }
  }

  void start() {
    std::int32_t k = 0;
    for (; k < kSenders; ++k) {
      out_.event_times[static_cast<std::size_t>(k)] = k * kEventGap;
      s_.events.schedule(k * kEventGap, this, /*tag=*/0,
                         static_cast<std::uint64_t>(k));
    }
    for (std::int32_t j = 0; j < kSenders - 1; ++j, ++k) {
      out_.event_times[static_cast<std::size_t>(k)] =
          (kSenders + j) * kEventGap;
      s_.events.schedule((kSenders + j) * kEventGap, this, /*tag=*/1,
                         static_cast<std::uint64_t>(j));
    }
  }

  void on_event(std::uint32_t tag, std::uint64_t arg) override {
    const auto i = static_cast<std::int32_t>(arg);
    if (tag == 0) {
      start_flow(i);
    } else {
      stop_flow(i);
    }
  }

  [[nodiscard]] RunOutput& output() { return out_; }

 private:
  void start_flow(std::int32_t i) {
    // Senders sit in distinct racks; the receiver is host 0.
    const std::int32_t src = (i + 1) * clos_.config().servers_per_rack;
    const std::int32_t dst = 0;
    const std::uint32_t key = reg_.next_id();
    auto flow = make_flow(scheme_, reg_, clos_, src, dst, key);
    TcpFlow* f = flow.get();
    flows_[static_cast<std::size_t>(i)] = std::move(flow);
    by_key_.emplace(key, f);
    f->on_delivered = [this, i](std::int64_t bytes) {
      auto& bins = out_.flows[static_cast<std::size_t>(i)].gbps;
      const auto bin = static_cast<std::size_t>(s_.now() / kBin);
      if (bin < bins.size()) {
        bins[bin] += static_cast<double>(bytes) * 8.0 / to_sec(kBin) / 1e9;
      }
    };
    if (control_ != nullptr) {
      f->on_complete = [this, key, src] {
        control_->flowlet_end(key, src);
        by_key_.erase(key);
      };
      control_->flowlet_start(key, src, dst);
    }
    f->app_send(std::int64_t{1} << 34);  // effectively unbounded
  }

  void stop_flow(std::int32_t i) {
    if (flows_[static_cast<std::size_t>(i)]) {
      flows_[static_cast<std::size_t>(i)]->app_abort();
    }
  }

  Scheme scheme_;
  sim::Simulator& s_;
  const topo::ClosTopology& clos_;
  FlowRegistry& reg_;
  ControlPlane* control_;
  std::array<std::unique_ptr<TcpFlow>, kSenders> flows_;
  std::unordered_map<std::uint32_t, TcpFlow*> by_key_;
  RunOutput out_;
};

RunOutput run_scheme(Scheme scheme) {
  ExpConfig qcfg;  // queue parameters only
  qcfg.scheme = scheme;
  topo::ClosConfig tcfg;  // paper topology
  tcfg.with_allocator = scheme == Scheme::kFlowtune;
  topo::ClosTopology clos(tcfg);
  sim::Simulator s;
  sim::Network net(s.events, s.pool, clos, make_queue_factory(qcfg));
  FlowRegistry reg(net);
  std::unique_ptr<ControlPlane> control;
  if (scheme == Scheme::kFlowtune) {
    control = std::make_unique<ControlPlane>(reg, clos, ControlPlaneConfig{});
  }
  Fig4Driver driver(scheme, s, clos, reg, control.get());
  driver.start();
  s.run_until(kHorizon);
  return driver.output();
}

// First time after the event where all active flows stay within
// `tol` of the fair share for `hold` consecutive bins.
Time convergence_time(const RunOutput& out, std::size_t event_idx,
                      double fair_gbps, std::int32_t first_active,
                      std::int32_t last_active, double tol,
                      std::int32_t hold) {
  const Time t0 = out.event_times[event_idx];
  const Time t1 = event_idx + 1 < out.event_times.size()
                      ? out.event_times[event_idx + 1]
                      : kHorizon;
  const auto bin0 = static_cast<std::size_t>(t0 / kBin);
  const auto bin1 = static_cast<std::size_t>(t1 / kBin);
  std::int32_t streak = 0;
  for (std::size_t b = bin0; b < bin1; ++b) {
    bool ok = true;
    for (std::int32_t f = first_active; f <= last_active; ++f) {
      const double rate = out.flows[static_cast<std::size_t>(f)].gbps[b];
      if (rate < fair_gbps * (1 - tol) || rate > fair_gbps * (1 + tol)) {
        ok = false;
        break;
      }
    }
    streak = ok ? streak + 1 : 0;
    if (streak >= hold) {
      return static_cast<Time>(b + 1 - static_cast<std::size_t>(hold)) *
                 kBin -
             t0 + kBin;
    }
  }
  return -1;
}

}  // namespace

int main(int argc, char** argv) {
  ft::bench::Flags flags(argc, argv);
  const bool timeline =
      flags.bool_flag("timeline", true, "print the 1ms-binned timeline");
  flags.done("Reproduces Figure 4 (fair-allocation convergence).");

  ft::bench::banner("Convergence to fair shares (5-sender staircase)",
                    "Flowtune paper Figure 4 / §6.3, result (B)");

  const Scheme schemes[] = {Scheme::kFlowtune, Scheme::kDctcp,
                            Scheme::kPfabric, Scheme::kSfqCodel,
                            Scheme::kXcp};
  int flowtune_misses = 0;
  for (const Scheme scheme : schemes) {
    const RunOutput out = run_scheme(scheme);
    std::printf("--- %s ---\n", scheme_name(scheme));
    if (timeline) {
      std::printf("time(ms)  f1     f2     f3     f4     f5   (Gbit/s, "
                  "1ms bins)\n");
      const auto bins_per_ms = static_cast<std::size_t>(kMillisecond / kBin);
      for (std::size_t ms = 0; ms < 100; ms += 4) {
        std::printf("%6zu  ", ms);
        for (std::int32_t f = 0; f < kSenders; ++f) {
          double sum = 0;
          for (std::size_t b = ms * bins_per_ms;
               b < (ms + 1) * bins_per_ms; ++b) {
            sum += out.flows[static_cast<std::size_t>(f)].gbps[b];
          }
          std::printf("%5.2f  ", sum / static_cast<double>(bins_per_ms));
        }
        std::printf("\n");
      }
    }
    // Convergence-time summary per join event (paper: Flowtune within
    // ~100 us, DCTCP several ms, XCP slow, pFabric never shares).
    std::printf("convergence to fair share (+/-25%%, held 0.5 ms):\n");
    for (std::size_t e = 1; e < kSenders; ++e) {
      const double fair =
          (scheme == Scheme::kFlowtune ? 9.9 : 10.0) /
          static_cast<double>(e + 1);
      const Time ct = convergence_time(out, e, fair, 0,
                                       static_cast<std::int32_t>(e),
                                       0.25, 5);
      if (ct < 0) {
        std::printf("  %zu->%zu flows: not converged within 10 ms\n", e,
                    e + 1);
        if (scheme == Scheme::kFlowtune) ++flowtune_misses;
      } else {
        std::printf("  %zu->%zu flows: %.2f ms\n", e, e + 1, to_ms(ct));
      }
    }
    std::printf("\n");
  }
  std::printf(
      "Paper: Flowtune converges within ~100 us (20 us allocation); "
      "DCTCP needs several ms and keeps fluctuating; pFabric starves all "
      "but one flow; sfqCoDel is fair but bursty; XCP stays slow.\n");
  if (flowtune_misses > 0) {
    std::fprintf(stderr, "FAIL: Flowtune missed the fair share after %d "
                 "join(s)\n", flowtune_misses);
    return 1;
  }
  return 0;
}
