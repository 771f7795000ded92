// fct_web: transport::run_experiment with Scheme::kFlowtune on the
// paper's 144-host Clos (9 racks x 16 hosts, 4 spines), Web workload at
// load 0.6. Its cost sits in sim and transport, not core.
//
// The timed operation is one long run_experiment call per experiment.
// Its rounds (one allocator period of simulated time each) are timed by
// an observer thread that sleeps between reads of the allocator's public
// core.iterations counter; it does no simulation work, but moves the
// simulating thread to the next CPU every CpuRotation::kRoundsPerCpu
// rounds. Set-up is the
// wall time from the call until the measured window opens (construction
// plus warm-up traffic); throughput and round times cover the window,
// where the network runs at the offered load.
#include <sys/prctl.h>
#include <unistd.h>

#include <array>
#include <thread>
#include <vector>

#include "checks.h"
#include "obs/metrics.h"
#include "transport/experiment.h"
#include "workload/traffic_gen.h"
#include "workloads.h"

namespace flowbench {
namespace {

using ft::transport::ExpConfig;
using ft::transport::ExpResult;

ExpConfig experiment_config(const FctWebConfig& cfg, std::uint64_t seed) {
  ExpConfig e;
  e.scheme = ft::transport::Scheme::kFlowtune;
  e.traffic.workload = ft::wl::Workload::kWeb;
  e.traffic.load = 0.6;
  e.traffic.seed = seed;
  e.warmup = cfg.warmup;
  e.duration = cfg.window;
  e.drain = cfg.drain;
  return e;
}

// The flows run_experiment must start: every arrival before the end of
// the window; those at or after the warm-up are measured.
struct ExpectedFlows {
  std::size_t started = 0;
  std::size_t measured = 0;
};

ExpectedFlows expected_flows(const ExpConfig& e) {
  ft::wl::TrafficConfig tc = e.traffic;
  tc.num_hosts = e.topo.num_hosts();
  tc.host_link_bps = e.topo.host_link_bps;
  ft::wl::TrafficGenerator gen(tc);
  ExpectedFlows x;
  for (;;) {
    const ft::wl::FlowletEvent ev = gen.next();
    if (ev.start >= e.warmup + e.duration) break;
    ++x.started;
    if (ev.start >= e.warmup) ++x.measured;
  }
  return x;
}

// Wall-clock view of one run_experiment call, for the allocator rounds
// in [first, last] (the measured window).
struct WindowTiming {
  std::vector<double> round_us;  // one sample per observed advance
  std::int64_t open_ns = 0;      // round `first` seen
  std::int64_t close_ns = 0;     // round `last` seen
  int threads = 0;               // process threads at the first advance
};

class RoundObserver {
 public:
  RoundObserver(const ft::obs::Counter& iterations, std::uint64_t first,
                std::uint64_t last, const CpuRotation& rotation,
                int slot0, WindowTiming& out)
      : thread_([&iterations, first, last, &rotation, slot0, &out,
                 sim_tid = static_cast<int>(gettid())](std::stop_token st) {
          rotation.release_this_thread();  // off the simulator's CPU
          // 1 us timer slack: each sleep lasts about what it asks for.
          (void)prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
          std::uint64_t seen = iterations.value();
          std::int64_t seen_ns = wall_ns();
          while (!st.stop_requested()) {
            std::this_thread::sleep_for(std::chrono::microseconds(100));
            const std::uint64_t it = iterations.value();
            if (it == seen) continue;
            const std::int64_t now = wall_ns();
            if (out.threads == 0) out.threads = thread_count();
            const auto move = static_cast<std::uint64_t>(
                CpuRotation::kRoundsPerCpu);
            if (it / move != seen / move) {
              rotation.pin_thread(sim_tid,
                                  slot0 + static_cast<int>(it / move));
            }
            if (seen < first && it >= first) out.open_ns = now;
            if (seen < last && it >= last) out.close_ns = now;
            if (seen >= first && it <= last) {
              out.round_us.push_back(static_cast<double>(now - seen_ns) *
                                     1e-3 / static_cast<double>(it - seen));
            }
            seen = it;
            seen_ns = now;
          }
        }) {}

 private:
  std::jthread thread_;  // stopped and joined by its destructor
};

}  // namespace

WorkloadResult run_fct_web(const FctWebConfig& cfg, const RunOptions& opt) {
  WorkloadResult res;
  res.pinning = "simulating thread on one CPU, moved to the next every 50 "
                "allocator rounds by an unpinned observer thread";
  res.backend = "sequential allocator inside run_experiment";

  std::vector<double> round_us, setup_s;
  double wall_s = 0.0, window_s = 0.0, window_rounds = 0.0;
  std::uint64_t started = 0, measured = 0, updates = 0;
  // Traced pass: pooled allocator registry sums.
  double solve_sum = 0, solve_n = 0, emit_sum = 0, emit_n = 0;
  double ned_sum = 0, ned_n = 0, norm_sum = 0, norm_n = 0;
  double emitted = 0, suppressed = 0, rounds = 0;
  std::array<double, 5> fct{};  // p50_1pkt, p99_1pkt, p99_10, p99_100, p99_1000
  double fct_mean = 0, q2 = 0, q4 = 0, drop = 0, goodput = 0, to_a = 0,
         from_a = 0;

  const CpuRotation rotation;
  for (int i = 0; i < cfg.experiments; ++i) {
    rotation.pin(i);
    const ExpConfig base = experiment_config(cfg, derive_seed(opt.seed, i));
    const ExpectedFlows want = expected_flows(base);
    ft::obs::MetricsRegistry reg;
    ExpConfig e = base;
    e.allocator.allocator.metrics = &reg;
    const auto period = e.allocator.iteration_period;
    const auto first = static_cast<std::uint64_t>(e.warmup / period);
    const auto last =
        static_cast<std::uint64_t>((e.warmup + e.duration) / period);

    ExpResult r;
    WindowTiming wt;
    std::int64_t t0 = 0, t1 = 0;
    {
      RoundObserver obs(reg.counter("core.iterations"), first, last,
                        rotation, i, wt);
      t0 = wall_ns();
      r = ft::transport::run_experiment(e);
      t1 = wall_ns();
    }
    if (wt.open_ns == 0 || wt.close_ns <= wt.open_ns) {
      res.fail_check("experiment " + std::to_string(i) +
                     ": measured window not observed");
      wt.open_ns = t0;
      wt.close_ns = t1;
    }
    if (opt.trace) {
      trace_span("setup_and_warmup", t0, wt.open_ns);
      trace_span("measured_window", wt.open_ns, wt.close_ns);
      trace_span("drain", wt.close_ns, t1);
    }
    round_us.insert(round_us.end(), wt.round_us.begin(), wt.round_us.end());
    setup_s.push_back(static_cast<double>(wt.open_ns - t0) * 1e-9);
    window_s += static_cast<double>(wt.close_ns - wt.open_ns) * 1e-9;
    window_rounds += static_cast<double>(last - first);
    wall_s += static_cast<double>(t1 - t0) * 1e-9;
    started += r.flows_started;
    measured += want.measured;
    updates += r.allocator_updates;
    for (const std::string& err : check_fct(r, want.started, want.measured)) {
      res.fail_check("experiment " + std::to_string(i) + ": " + err);
    }
    res.attempted += static_cast<std::int64_t>(want.measured);
    res.failed += static_cast<std::int64_t>(r.flows_unfinished);

    const double k = 1.0 / cfg.experiments;
    fct[0] += k * r.buckets[0].p50_norm_fct;
    fct[1] += k * r.buckets[0].p99_norm_fct;
    fct[2] += k * r.buckets[1].p99_norm_fct;
    fct[3] += k * r.buckets[2].p99_norm_fct;
    fct[4] += k * r.buckets[3].p99_norm_fct;
    fct_mean += k * r.mean_norm_fct;
    q2 += k * r.p99_queue_2hop_us;
    q4 += k * r.p99_queue_4hop_us;
    drop += k * r.dropped_gbps;
    goodput += k * r.goodput_gbps;
    to_a += k * r.to_allocator_gbps;
    from_a += k * r.from_allocator_gbps;
    res.facts["exp" + std::to_string(i) + ".fct_p99_1pkt"] =
        r.buckets[0].p99_norm_fct;
    res.facts["exp" + std::to_string(i) + ".flows_started"] =
        static_cast<double>(r.flows_started);
    res.facts["exp" + std::to_string(i) + ".allocator_updates"] =
        static_cast<double>(r.allocator_updates);
    res.facts["exp" + std::to_string(i) + ".threads"] = wt.threads;
    res.facts["exp" + std::to_string(i) + ".wall_s"] =
        static_cast<double>(t1 - t0) * 1e-9;

    const auto h = [&reg](const char* name) {
      return reg.histo(name).snapshot();
    };
    solve_sum += static_cast<double>(h("core.solve_us").sum);
    solve_n += static_cast<double>(h("core.solve_us").count);
    emit_sum += static_cast<double>(h("core.emit_us").sum);
    emit_n += static_cast<double>(h("core.emit_us").count);
    ned_sum += static_cast<double>(h("core.ned_us").sum);
    ned_n += static_cast<double>(h("core.ned_us").count);
    norm_sum += static_cast<double>(h("core.norm_us").sum);
    norm_n += static_cast<double>(h("core.norm_us").count);
    emitted += static_cast<double>(reg.counter("core.updates_emitted").value());
    suppressed +=
        static_cast<double>(reg.counter("core.updates_suppressed").value());
    rounds += static_cast<double>(reg.counter("core.iterations").value());
  }

  const auto n = static_cast<std::int64_t>(round_us.size());
  res.metrics["setup_s"] = median(setup_s);
  res.samples["setup_s"] = cfg.experiments;
  res.metrics["round_mean_us"] = window_s * 1e6 / window_rounds;
  res.metrics["round_p90_us"] = percentile(round_us, 0.90);
  res.metrics["round_p99_us"] = percentile(round_us, 0.99);
  res.samples["round_mean_us"] = static_cast<std::int64_t>(window_rounds);
  res.samples["round_p90_us"] = n;
  res.samples["round_p99_us"] = n;
  res.metrics["flowlets_per_s"] = static_cast<double>(measured) / window_s;
  res.samples["flowlets_per_s"] = cfg.experiments;
  res.metrics["updates_per_flowlet"] =
      static_cast<double>(updates) / static_cast<double>(measured);
  res.facts["flows_started"] = static_cast<double>(started);
  res.facts["flows_measured"] = static_cast<double>(measured);
  res.facts["allocator_updates"] = static_cast<double>(updates);
  res.facts["fct_p99_1pkt"] = fct[1];
  res.facts["fct_mean"] = fct_mean;

  if (opt.trace) {
    const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    res.metrics["core.solve_us"] = ratio(solve_sum, solve_n);
    res.metrics["core.emit_us"] = ratio(emit_sum, emit_n);
    res.metrics["core.ned_us"] = ratio(ned_sum, ned_n);
    res.metrics["core.norm_us"] = ratio(norm_sum, norm_n);
    res.metrics["core.notify_frac"] = ratio(emitted, emitted + suppressed);
    res.metrics["core.busy_frac"] =
        ratio((solve_sum + emit_sum) * 1e-6, wall_s);
    res.metrics["core.rounds"] = rounds;
    res.metrics["sim.queue_p99_2hop_us"] = q2;
    res.metrics["sim.queue_p99_4hop_us"] = q4;
    res.metrics["sim.drop_gbps"] = drop;
    res.metrics["sim.goodput_gbps"] = goodput;
    res.metrics["fct.p50_1pkt"] = fct[0];
    res.metrics["fct.p99_1pkt"] = fct[1];
    res.metrics["fct.p99_10pkt"] = fct[2];
    res.metrics["fct.p99_100pkt"] = fct[3];
    res.metrics["fct.p99_1000pkt"] = fct[4];
    res.metrics["fct.mean"] = fct_mean;
    res.metrics["transport.ctrl_to_alloc_gbps"] = to_a;
    res.metrics["transport.ctrl_from_alloc_gbps"] = from_a;
  }
  return res;
}

}  // namespace flowbench
