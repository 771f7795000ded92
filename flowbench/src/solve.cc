// solve_100k / solve_par: the allocator as the daemon runs it, on a
// 1024-host Clos holding ~100k live flowlets under seeded churn.
//
// One timed round = that round's churn (route lookup, flowlet_end,
// flowlet_start) followed by run_iteration. The churn schedule is built
// from the seed before anything is timed, so the input never depends on
// the allocator's output.
#include <memory>
#include <vector>

#include "checks.h"
#include "common/rng.h"
#include "core/allocator.h"
#include "core/backend.h"
#include "obs/metrics.h"
#include "topo/clos.h"
#include "topo/partition.h"
#include "workloads.h"

namespace flowbench {
namespace {

using ft::core::Allocator;
using ft::core::RateUpdate;

struct Start {
  std::uint64_t key;
  std::int32_t src;
  std::int32_t dst;
};

// Round 0 holds the initial population; round r >= 1 ends the flowlets
// whose seeded lifetime ran out, then starts churn_per_round new
// host-pair flowlets. Lifetimes are exponential with mean
// flows / churn_per_round rounds, so the live count stays near `flows`.
struct ChurnSchedule {
  std::vector<std::size_t> start_at;  // round r: [start_at[r], start_at[r+1])
  std::vector<Start> starts;
  std::vector<std::size_t> end_at;
  std::vector<std::uint64_t> ends;
};

ChurnSchedule make_schedule(const SolveConfig& cfg, std::int32_t hosts,
                            int timed_rounds, std::uint64_t seed) {
  const int rounds = 1 + cfg.warmup_rounds + timed_rounds;
  const double mean_life = static_cast<double>(cfg.flows) /
                           static_cast<double>(cfg.churn_per_round);
  ft::Rng rng(seed);
  std::vector<std::vector<std::uint64_t>> ends(
      static_cast<std::size_t>(rounds));
  ChurnSchedule s;
  s.starts.reserve(cfg.flows + cfg.churn_per_round *
                                   static_cast<std::size_t>(rounds));
  std::uint64_t next_key = 1;
  for (int r = 0; r < rounds; ++r) {
    s.start_at.push_back(s.starts.size());
    const std::size_t n = r == 0 ? cfg.flows : cfg.churn_per_round;
    for (std::size_t i = 0; i < n; ++i) {
      Start st{next_key++, 0, 0};
      st.src = static_cast<std::int32_t>(
          rng.below(static_cast<std::uint64_t>(hosts)));
      st.dst = static_cast<std::int32_t>(
          rng.below(static_cast<std::uint64_t>(hosts - 1)));
      if (st.dst >= st.src) ++st.dst;
      s.starts.push_back(st);
      const auto life =
          1 + static_cast<std::int64_t>(rng.exponential(mean_life));
      if (r + life < rounds) {
        ends[static_cast<std::size_t>(r + life)].push_back(st.key);
      }
    }
  }
  s.start_at.push_back(s.starts.size());
  for (const auto& e : ends) {
    s.end_at.push_back(s.ends.size());
    s.ends.insert(s.ends.end(), e.begin(), e.end());
  }
  s.end_at.push_back(s.ends.size());
  return s;
}

// Per-call layer timers of the traced pass.
struct LayerTimes {
  std::int64_t route_ns = 0, routes = 0;
  std::int64_t start_ns = 0, starts = 0;
  std::int64_t end_ns = 0, ends = 0;
};

struct Instance {
  std::unique_ptr<ft::topo::ClosTopology> clos;
  std::unique_ptr<Allocator> alloc;
  std::int64_t churn_rejects = 0;  // starts/ends the allocator refused
};

template <bool kTraced>
void apply_churn(Instance& in, const ChurnSchedule& s, int r,
                 LayerTimes* lt) {
  const auto ru = static_cast<std::size_t>(r);
  const ft::topo::ClosTopology& clos = *in.clos;
  for (std::size_t i = s.end_at[ru]; i < s.end_at[ru + 1]; ++i) {
    if constexpr (kTraced) {
      const std::int64_t t0 = wall_ns();
      const bool ok = in.alloc->flowlet_end(s.ends[i]);
      lt->end_ns += wall_ns() - t0;
      ++lt->ends;
      in.churn_rejects += ok ? 0 : 1;
    } else {
      in.churn_rejects += in.alloc->flowlet_end(s.ends[i]) ? 0 : 1;
    }
  }
  for (std::size_t i = s.start_at[ru]; i < s.start_at[ru + 1]; ++i) {
    const Start& st = s.starts[i];
    if constexpr (kTraced) {
      const std::int64_t t0 = wall_ns();
      const ft::topo::Path p =
          clos.host_path(clos.host(st.src), clos.host(st.dst), st.key);
      const std::int64_t t1 = wall_ns();
      const bool ok = in.alloc->flowlet_start(st.key, p.links());
      const std::int64_t t2 = wall_ns();
      lt->route_ns += t1 - t0;
      lt->start_ns += t2 - t1;
      ++lt->routes;
      ++lt->starts;
      in.churn_rejects += ok ? 0 : 1;
    } else {
      const ft::topo::Path p =
          clos.host_path(clos.host(st.src), clos.host(st.dst), st.key);
      in.churn_rejects += in.alloc->flowlet_start(st.key, p.links()) ? 0 : 1;
    }
  }
}

ft::topo::ClosConfig clos_config(const SolveConfig& cfg) {
  ft::topo::ClosConfig c;
  c.racks = cfg.racks;
  c.servers_per_rack = cfg.servers_per_rack;
  c.spines = cfg.spines;
  return c;
}

// Set-up: topology, allocator, reserve, round 0 (the initial population
// and its first allocation) and the warm-up rounds.
template <bool kTraced>
std::unique_ptr<Instance> build(const SolveConfig& cfg,
                                const ChurnSchedule& s,
                                ft::obs::MetricsRegistry* reg,
                                std::vector<RateUpdate>& out,
                                LayerTimes* lt) {
  auto in = std::make_unique<Instance>();
  in->clos = std::make_unique<ft::topo::ClosTopology>(clos_config(cfg));
  std::vector<double> caps;
  for (const auto& l : in->clos->graph().links()) {
    caps.push_back(l.capacity_bps);
  }
  ft::core::AllocatorConfig acfg;
  acfg.metrics = reg;
  if (cfg.par_blocks > 0) {
    ft::core::ParallelConfig pcfg;
    pcfg.num_threads = 2;
    in->alloc = std::make_unique<Allocator>(
        std::move(caps), acfg,
        ft::core::parallel_backend(
            ft::topo::BlockPartition::make(*in->clos, cfg.par_blocks), pcfg));
  } else {
    in->alloc = std::make_unique<Allocator>(std::move(caps), acfg);
  }
  in->alloc->reserve(cfg.flows + cfg.flows / 10);
  for (int r = 0; r <= cfg.warmup_rounds; ++r) {
    apply_churn<kTraced>(*in, s, r, lt);
    out.clear();
    in->alloc->run_iteration(out);
  }
  return in;
}

// Registry histogram sums over the timed rounds only (set-up excluded).
struct HistoSum {
  explicit HistoSum(const ft::obs::LatencyHisto& h) : h_(h) {}
  void begin() { before_ = h_.snapshot(); }
  void end() {
    const ft::obs::HistoSnapshot now = h_.snapshot();
    sum += static_cast<double>(now.sum - before_.sum);
    n += static_cast<double>(now.count - before_.count);
  }
  [[nodiscard]] double mean() const { return n > 0 ? sum / n : 0.0; }
  double sum = 0.0;
  double n = 0.0;

 private:
  const ft::obs::LatencyHisto& h_;
  ft::obs::HistoSnapshot before_;
};

template <bool kTraced>
WorkloadResult run(const SolveConfig& cfg, const RunOptions& opt) {
  WorkloadResult res;
  const bool par = cfg.par_blocks > 0;
  // Only the single-threaded backend rotates; the parallel backend's main
  // thread and two workers are left to the scheduler.
  res.pinning = par ? "none: the backend's three threads float"
                    : "solver thread on one CPU, moved to the next every 50 "
                      "rounds";
  res.backend = par ? "parallel_backend, " + std::to_string(cfg.par_blocks) +
                          "x" + std::to_string(cfg.par_blocks) +
                          " FlowBlocks, 2 worker threads"
                    : "sequential";
  const std::int32_t hosts = cfg.racks * cfg.servers_per_rack;
  const int seg_rounds = cfg.timed_rounds / cfg.segments;
  const ChurnSchedule sched = make_schedule(cfg, hosts, seg_rounds, opt.seed);

  ft::obs::MetricsRegistry reg;
  ft::obs::MetricsRegistry* regp = kTraced ? &reg : nullptr;
  std::vector<HistoSum> histos;
  for (const char* name :
       {"core.solve_us", "core.emit_us", "core.ned_us", "core.norm_us",
        "core.par.band_us", "core.par.barrier_wait_us"}) {
    histos.emplace_back(reg.histo(name));
  }
  LayerTimes lt;
  std::vector<RateUpdate> out;
  std::vector<double> setup_s, round_us, churn_us, iter_us, band_max_us;
  round_us.reserve(static_cast<std::size_t>(cfg.timed_rounds));
  double notify_sum = 0.0;
  std::uint64_t updates = 0;
  std::uint64_t started = 0;
  std::uint64_t first_updates = 0;
  const int first = cfg.warmup_rounds + 1;

  // Each segment sets up a fresh instance (one setup_s sample) and times
  // the same scheduled rounds on it, so the samples span several memory
  // layouts and stretches of the run; same input, same updates. Set-up
  // runs unpinned. Its samples vary 0.12-0.26 s within one run, pinned or
  // not, and the first, on fresh pages, is usually the slowest, so
  // setup_s is their median.
  const CpuRotation rotation;
  std::unique_ptr<Instance> in;
  for (int seg = 0; seg < cfg.segments; ++seg) {
    in.reset();
    out = {};
    LayerTimes setup_lt;
    const std::int64_t s0 = wall_ns();
    in = build<kTraced>(cfg, sched, regp, out, &setup_lt);
    const std::int64_t s1 = wall_ns();
    setup_s.push_back(static_cast<double>(s1 - s0) * 1e-9);
    res.facts["seg" + std::to_string(seg) + ".setup_s"] = setup_s.back();
    if constexpr (kTraced) trace_span("setup", s0, s1);
    out.reserve(cfg.flows * 2);
    for (HistoSum& h : histos) h.begin();

    std::uint64_t seg_updates = 0;
    for (int r = first; r < first + seg_rounds; ++r) {
      const auto ru = static_cast<std::size_t>(r);
      if (!par && (r - first) % CpuRotation::kRoundsPerCpu == 0) {
        rotation.pin(seg + (r - first) / CpuRotation::kRoundsPerCpu);
      }
      const std::int64_t t0 = wall_ns();
      apply_churn<kTraced>(*in, sched, r, &lt);
      const std::int64_t t1 = kTraced ? wall_ns() : 0;
      out.clear();
      in->alloc->run_iteration(out);
      const std::int64_t t2 = wall_ns();
      round_us.push_back(static_cast<double>(t2 - t0) * 1e-3);
      seg_updates += out.size();
      started += sched.start_at[ru + 1] - sched.start_at[ru];
      if constexpr (kTraced) {
        churn_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
        iter_us.push_back(static_cast<double>(t2 - t1) * 1e-3);
        notify_sum += static_cast<double>(out.size()) /
                      static_cast<double>(in->alloc->num_active_flowlets());
        if (par) {
          band_max_us.push_back(in->alloc->backend().last_band_max_us());
        }
        trace_span("churn", t0, t1);
        trace_span("run_iteration", t1, t2);
      }
      ++res.attempted;
      const std::vector<std::string> errs = check_allocation(
          in->alloc->problem(), in->alloc->backend().norm_rates());
      if (!errs.empty()) {
        ++res.failed;
        if (res.check_errors.empty()) {
          res.fail_check("round " + std::to_string(r) + ": " + errs.front());
        }
      }
    }
    for (HistoSum& h : histos) h.end();
    if (!par) rotation.release_this_thread();
    if (seg == 0) res.facts["threads_while_timed"] = thread_count();
    updates += seg_updates;
    if (seg == 0) {
      first_updates = seg_updates;
    } else if (seg_updates != first_updates) {
      res.fail_check("segment " + std::to_string(seg) + " emitted " +
                     std::to_string(seg_updates) + " updates, segment 0 " +
                     std::to_string(first_updates) + " on the same input");
    }
    if (in->churn_rejects != 0) {
      res.fail_check(std::to_string(in->churn_rejects) +
                     " churn calls refused by the allocator");
    }
  }

  double round_total_s = 0.0;
  for (const double u : round_us) round_total_s += u * 1e-6;
  const auto n = static_cast<std::int64_t>(round_us.size());
  res.metrics["setup_s"] = median(setup_s);
  res.samples["setup_s"] = cfg.segments;
  res.metrics["round_mean_us"] =
      round_total_s * 1e6 / static_cast<double>(n);
  res.metrics["round_p90_us"] = percentile(round_us, 0.90);
  res.metrics["round_p99_us"] = percentile(round_us, 0.99);
  res.samples["round_mean_us"] = n;
  res.samples["round_p90_us"] = n;
  res.samples["round_p99_us"] = n;
  res.metrics["flowlets_per_s"] =
      static_cast<double>(started) / round_total_s;
  res.samples["flowlets_per_s"] = n;
  res.metrics["updates_per_flowlet"] =
      static_cast<double>(updates) / static_cast<double>(started);
  res.facts["hosts"] = hosts;
  res.facts["live_flowlets_end"] =
      static_cast<double>(in->alloc->num_active_flowlets());
  res.facts["timed_rounds"] = static_cast<double>(n);
  res.facts["flowlets_started_timed"] = static_cast<double>(started);
  res.facts["updates_timed"] = static_cast<double>(updates);

  if constexpr (kTraced) {
    const auto per = [](std::int64_t ns, std::int64_t k) {
      return k == 0 ? 0.0
                    : static_cast<double>(ns) / static_cast<double>(k);
    };
    res.metrics["topo.route_ns"] = per(lt.route_ns, lt.routes);
    res.metrics["core.start_ns"] = per(lt.start_ns, lt.starts);
    res.metrics["core.end_ns"] = per(lt.end_ns, lt.ends);
    res.samples["topo.route_ns"] = lt.routes;
    res.samples["core.start_ns"] = lt.starts;
    res.samples["core.end_ns"] = lt.ends;
    res.metrics["core.churn_us"] = median(churn_us);
    res.metrics["core.iter_p50_us"] = percentile(iter_us, 0.50);
    res.metrics["core.iter_p99_us"] = percentile(iter_us, 0.99);
    res.samples["core.churn_us"] = n;
    res.samples["core.iter_p50_us"] = n;
    res.samples["core.iter_p99_us"] = n;
    res.metrics["core.solve_us"] = histos[0].mean();
    res.metrics["core.emit_us"] = histos[1].mean();
    res.metrics["core.ned_us"] = histos[2].mean();
    res.metrics["core.norm_us"] = histos[3].mean();
    res.metrics["core.notify_frac"] = notify_sum / static_cast<double>(n);
    res.metrics["core.busy_frac"] =
        (histos[0].sum + histos[1].sum) / (round_total_s * 1e6);
    res.metrics["core.rounds"] = histos[0].n;
    if (par) {
      const HistoSum& band = histos[4];
      const HistoSum& wait = histos[5];
      res.metrics["core.par.band_us"] = band.mean();
      res.metrics["core.par.barrier_wait_us"] = wait.mean();
      res.metrics["core.par.wait_frac"] =
          band.sum + wait.sum > 0.0 ? wait.sum / (band.sum + wait.sum) : 0.0;
      res.metrics["core.par.band_max_p50_us"] = percentile(band_max_us, 0.50);
      res.metrics["core.par.band_max_p99_us"] = percentile(band_max_us, 0.99);
      res.samples["core.par.band_max_p50_us"] = n;
      res.samples["core.par.band_max_p99_us"] = n;
    }
  }
  return res;
}

}  // namespace

WorkloadResult run_solve(const SolveConfig& cfg, const RunOptions& opt) {
  return opt.trace ? run<true>(cfg, opt) : run<false>(cfg, opt);
}

}  // namespace flowbench
