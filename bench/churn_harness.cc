#include "churn_harness.h"

#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "common/wire.h"
#include "core/exact.h"
#include "core/messages.h"
#include "core/fgm.h"
#include "core/gradient.h"
#include "core/ned.h"
#include "core/newton_like.h"
#include "core/normalizer.h"
#include "core/rt.h"
#include "topo/clos.h"
#include "workload/traffic_gen.h"

namespace ft::bench {
namespace {

topo::ClosConfig clos_for(std::int32_t servers) {
  topo::ClosConfig cfg;
  cfg.servers_per_rack = 16;
  cfg.racks = (servers + cfg.servers_per_rack - 1) / cfg.servers_per_rack;
  cfg.spines = 4;  // full bisection at 16 x 10G vs 4 x 40G
  return cfg;
}

}  // namespace

UpdateTrafficResult run_update_traffic(const UpdateTrafficConfig& cfg) {
  const topo::ClosTopology clos(clos_for(cfg.servers));
  wl::TrafficConfig tc;
  tc.num_hosts = clos.config().num_hosts();
  tc.host_link_bps = clos.config().host_link_bps;
  tc.load = cfg.load;
  tc.workload = cfg.workload;
  tc.seed = cfg.seed;
  wl::TrafficGenerator gen(tc);

  core::AllocatorConfig acfg;
  acfg.gamma = cfg.gamma;
  acfg.threshold = cfg.threshold;
  core::Allocator alloc(clos.graph().capacities(), acfg);

  struct Live {
    double remaining_bytes;
    std::int32_t src;
  };
  std::unordered_map<std::uint64_t, Live> live;
  std::vector<std::uint64_t> ended_scratch;
  std::vector<core::RateUpdate> updates;

  UpdateTrafficResult res;
  wl::FlowletEvent next = gen.next();
  std::uint64_t next_key = 1;
  double active_flow_iters = 0.0;
  std::uint64_t iters = 0;

  for (Time now = 0; now < cfg.duration; now += cfg.iter_period) {
    // Admit arrivals up to `now`.
    while (next.start <= now) {
      const auto path = clos.host_path(clos.host(next.src_host),
                                       clos.host(next.dst_host), next_key);
      std::vector<LinkId> links(path.begin(), path.end());
      alloc.flowlet_start(next_key, links);
      live.emplace(next_key,
                   Live{static_cast<double>(next.bytes), next.src_host});
      // Start notification: 16 B on its own frame.
      res.to_allocator_bytes += wire_bytes_tcp(core::kFlowletStartBytes);
      ++res.flowlet_starts;
      ++next_key;
      next = gen.next();
    }

    updates.clear();
    alloc.run_iteration(updates);
    ++iters;
    active_flow_iters += static_cast<double>(live.size());
    res.updates += updates.size();

    // Updates are batched per destination server (or per intermediary
    // group, §7) within an iteration: the allocator coalesces all
    // updates for one destination into one TCP stream write.
    std::unordered_map<std::int32_t, std::int64_t> per_host_bytes;
    for (const auto& u : updates) {
      const auto it = live.find(u.key);
      if (it == live.end()) continue;
      per_host_bytes[it->second.src / cfg.hosts_per_intermediary] +=
          static_cast<std::int64_t>(core::kRateUpdateBytes);
    }
    for (const auto& [host, bytes] : per_host_bytes) {
      // Full MSS segments plus one partial.
      std::int64_t rest = bytes;
      while (rest > 0) {
        const std::int64_t seg = std::min<std::int64_t>(rest, kMss);
        res.from_allocator_bytes += wire_bytes_tcp(seg);
        rest -= seg;
      }
    }

    // Drain live flowlets at their allocated rates.
    ended_scratch.clear();
    const double dt = to_sec(cfg.iter_period);
    for (auto& [key, l] : live) {
      const double rate = alloc.notified_rate(key);
      l.remaining_bytes -= rate / 8.0 * dt;
      if (l.remaining_bytes <= 0.0) ended_scratch.push_back(key);
    }
    for (const std::uint64_t key : ended_scratch) {
      alloc.flowlet_end(key);
      live.erase(key);
      res.to_allocator_bytes += wire_bytes_tcp(core::kFlowletEndBytes);
      ++res.flowlet_ends;
    }
  }

  const double capacity_bps = static_cast<double>(cfg.servers) *
                              clos.config().host_link_bps;
  const double dur_sec = to_sec(cfg.duration);
  res.to_allocator_frac = static_cast<double>(res.to_allocator_bytes) *
                          8.0 / dur_sec / capacity_bps;
  res.from_allocator_frac =
      static_cast<double>(res.from_allocator_bytes) * 8.0 / dur_sec /
      capacity_bps;
  res.mean_active_flows =
      iters > 0 ? active_flow_iters / static_cast<double>(iters) : 0.0;
  return res;
}

const char* solver_kind_name(SolverKind k) {
  switch (k) {
    case SolverKind::kNed:
      return "NED";
    case SolverKind::kNedRt:
      return "NED-RT";
    case SolverKind::kGradient:
      return "Gradient";
    case SolverKind::kGradientRt:
      return "Gradient-RT";
    case SolverKind::kFgm:
      return "FGM";
    case SolverKind::kNewtonLike:
      return "Newton-like";
  }
  return "?";
}

std::unique_ptr<core::Solver> make_solver(SolverKind k,
                                          core::NumProblem& problem,
                                          double gamma) {
  switch (k) {
    case SolverKind::kNed:
      return std::make_unique<core::NedSolver>(problem, gamma);
    case SolverKind::kNedRt:
      return std::make_unique<core::NedRtSolver>(problem, gamma);
    case SolverKind::kGradient:
      return std::make_unique<core::GradientSolver>(problem, gamma);
    case SolverKind::kGradientRt:
      return std::make_unique<core::GradientRtSolver>(problem, gamma);
    case SolverKind::kFgm:
      return std::make_unique<core::FgmSolver>(problem, gamma);
    case SolverKind::kNewtonLike: {
      core::NewtonLikeOptions opt;
      opt.gamma = gamma;
      return std::make_unique<core::NewtonLikeSolver>(problem, opt);
    }
  }
  FT_CHECK(false);
}

ChurnSolverResult run_churn_solver(const ChurnSolverConfig& cfg) {
  const topo::ClosTopology clos(clos_for(cfg.servers));
  wl::TrafficConfig tc;
  tc.num_hosts = clos.config().num_hosts();
  tc.host_link_bps = clos.config().host_link_bps;
  tc.load = cfg.load;
  tc.workload = cfg.workload;
  tc.seed = cfg.seed;
  wl::TrafficGenerator gen(tc);

  core::NumProblem problem(clos.graph().capacities());
  auto solver = make_solver(cfg.solver, problem, cfg.gamma);

  struct Live {
    core::FlowIndex slot;
    double remaining_bytes;
  };
  std::vector<Live> live;
  std::vector<double> norm_rates;
  std::vector<double> u_rates;

  ChurnSolverResult res;
  wl::FlowletEvent next = gen.next();
  std::uint64_t iters = 0;
  double active_flow_iters = 0.0;

  for (Time now = 0; now < cfg.duration; now += cfg.iter_period) {
    while (next.start <= now) {
      const auto path =
          clos.host_path(clos.host(next.src_host),
                         clos.host(next.dst_host), res.flowlets);
      std::vector<LinkId> links(path.begin(), path.end());
      const core::FlowIndex slot =
          problem.add_flow(links, core::Utility::log_utility());
      live.push_back(Live{slot, static_cast<double>(next.bytes)});
      ++res.flowlets;
      next = gen.next();
    }

    solver->iterate();
    ++iters;
    active_flow_iters += static_cast<double>(live.size());

    // Figure 12 metric: over-capacity allocation of the *raw* rates.
    res.overalloc_gbps.add(solver->total_over_allocation() / 1e9);

    // Physical drain uses F-NORM rates (feasible by construction).
    norm_rates.resize(problem.num_slots());
    core::f_norm(problem, solver->rates(), norm_rates);

    if (cfg.exact_every > 0 &&
        iters % static_cast<std::uint64_t>(cfg.exact_every) == 0 &&
        problem.num_active() > 0) {
      u_rates.resize(problem.num_slots());
      core::u_norm(problem, solver->rates(), u_rates);
      // Converged optimum on a copy of the current flow set.
      core::NumProblem ref(clos.graph().capacities());
      for (core::FlowIndex s = 0; s < problem.num_slots(); ++s) {
        const core::FlowView f = problem.flow(s);
        if (!f.active()) continue;
        std::vector<LinkId> r;
        for (std::uint32_t l : f.route()) r.emplace_back(l);
        ref.add_flow(r, f.util());
      }
      const core::ExactResult opt = core::solve_exact(ref);
      if (opt.total_rate > 0.0) {
        double f_total = 0.0, u_total = 0.0;
        for (core::FlowIndex s = 0; s < problem.num_slots(); ++s) {
          if (!problem.flow(s).active()) continue;
          f_total += norm_rates[s];
          u_total += u_rates[s];
        }
        res.fnorm_frac.add(f_total / opt.total_rate);
        res.unorm_frac.add(u_total / opt.total_rate);
      }
    }

    const double dt = to_sec(cfg.iter_period);
    for (std::size_t i = 0; i < live.size();) {
      live[i].remaining_bytes -=
          norm_rates[live[i].slot] / 8.0 * dt;
      if (live[i].remaining_bytes <= 0.0) {
        problem.remove_flow(live[i].slot);
        live[i] = live.back();
        live.pop_back();
      } else {
        ++i;
      }
    }
  }
  res.mean_active_flows =
      iters > 0 ? active_flow_iters / static_cast<double>(iters) : 0.0;
  return res;
}

}  // namespace ft::bench
