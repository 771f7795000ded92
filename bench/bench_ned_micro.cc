// Microbenchmarks for the allocator's inner loops: NED iteration cost vs
// problem size, F-NORM (scatter and fused from-alloc variants), the
// parallel engine at different block counts, rate-codec and
// message-codec throughput. These are the per-iteration costs behind the
// §6.1 table.
//
// Rows that pin the parallel engine's thread count also carry its
// deterministic cost, cost.par.barriers_per_iter: the same on every
// machine, so the CI baseline diff gates it exactly. The solve_shape
// rows run flowbench solve_par's problem shape (1024 hosts, 100k flows)
// through the sequential NED + F-NORM and the 8x8 engine side by side.
//
// Self-contained on bench_util timers (no Google Benchmark dependency,
// so it always builds) and emits BENCH_ned_micro.json for the CI
// baseline diff:
//
//   $ ./bench_ned_micro --min-ms=200 --json=BENCH_ned_micro.json
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/ratecode.h"
#include "common/rng.h"
#include "core/messages.h"
#include "core/ned.h"
#include "core/normalizer.h"
#include "core/parallel.h"
#include "core/problem.h"
#include "topo/clos.h"
#include "topo/partition.h"

namespace {

using namespace ft;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Volatile sink defeating dead-code elimination of benchmark bodies.
volatile double g_sink = 0.0;

struct Case {
  std::string name;
  double ns_per_iter = 0.0;
  double items_per_sec = 0.0;
  std::int64_t iters = 0;
  std::int32_t barriers_per_iter = -1;  // parallel rows at fixed threads
};

// Runs `body` (which returns items processed per call) until `min_ms`
// of measured time has accumulated, after a short warmup.
Case run_case(const std::string& name, double min_ms,
              const std::function<double()>& body) {
  for (int i = 0; i < 3; ++i) g_sink = body();
  Case c;
  c.name = name;
  double items = 0.0;
  const double t0 = now_s();
  double elapsed = 0.0;
  while (elapsed < min_ms / 1e3 || c.iters < 10) {
    items += body();
    ++c.iters;
    elapsed = now_s() - t0;
  }
  c.ns_per_iter = elapsed / static_cast<double>(c.iters) * 1e9;
  c.items_per_sec = items / elapsed;
  return c;
}

struct Instance {
  topo::ClosTopology clos;
  std::vector<double> caps;
  std::vector<std::pair<std::vector<LinkId>, std::pair<int, int>>> flows;

  Instance(std::int32_t servers, std::int32_t num_flows,
           std::int32_t blocks)
      : clos([&] {
          topo::ClosConfig cfg;
          cfg.servers_per_rack = 16;
          cfg.racks = servers / 16;
          cfg.spines = 4;
          return topo::ClosTopology(cfg);
        }()),
        caps(clos.graph().capacities()) {
    const auto part = topo::BlockPartition::make(clos, blocks);
    Rng rng(1);
    const auto hosts = static_cast<std::uint64_t>(clos.num_hosts());
    for (std::int32_t f = 0; f < num_flows; ++f) {
      const auto s = static_cast<std::int32_t>(rng.below(hosts));
      auto d = static_cast<std::int32_t>(rng.below(hosts - 1));
      if (d >= s) ++d;
      const auto path =
          clos.host_path(clos.host(s), clos.host(d), rng.next());
      flows.emplace_back(
          std::vector<LinkId>(path.begin(), path.end()),
          std::make_pair(part.block_of_host(clos, clos.host(s)),
                         part.block_of_host(clos, clos.host(d))));
    }
  }
};

Case bench_ned_iteration(std::int32_t servers, std::int32_t num_flows,
                         double min_ms) {
  Instance inst(servers, num_flows, 2);
  core::NumProblem p(inst.caps);
  for (const auto& [route, blocks] : inst.flows) {
    p.add_flow(route, core::Utility::log_utility());
  }
  core::NedSolver ned(p);
  return run_case(
      bench::fmt("ned_iteration/%d/%d", servers, num_flows), min_ms,
      [&] {
        ned.iterate();
        return static_cast<double>(num_flows);
      });
}

Case bench_f_norm(std::int32_t num_flows, bool from_alloc,
                  double min_ms) {
  Instance inst(384, num_flows, 2);
  core::NumProblem p(inst.caps);
  for (const auto& [route, blocks] : inst.flows) {
    p.add_flow(route, core::Utility::log_utility());
  }
  core::NedSolver ned(p);
  ned.iterate();
  std::vector<double> out(p.num_slots());
  core::NormScratch scratch;
  return run_case(
      bench::fmt("%s/%d", from_alloc ? "f_norm_from_alloc" : "f_norm",
                 num_flows),
      min_ms, [&, from_alloc] {
        if (from_alloc) {
          core::f_norm_from_alloc(p, ned.rates(), ned.link_alloc(),
                                  ned.link_fixed(), out, scratch);
        } else {
          core::f_norm(p, ned.rates(), out, scratch);
        }
        return static_cast<double>(num_flows);
      });
}

// threads == 0: hardware_concurrency workers, so only the time is
// reported; a fixed thread count also reports the barrier cost.
Case bench_parallel_iteration(const Instance& inst, std::int32_t blocks,
                              std::int32_t threads, bool pin,
                              const std::string& name, double min_ms) {
  const auto part = topo::BlockPartition::make(inst.clos, blocks);
  core::NumProblem p(inst.caps);
  core::ParallelConfig cfg;
  cfg.num_blocks = blocks;
  cfg.num_threads = threads;
  cfg.pin.enable = pin;
  core::ParallelNed engine(p, part, cfg);
  for (const auto& [route, bl] : inst.flows) {
    const core::FlowIndex idx =
        p.add_flow(route, core::Utility::log_utility());
    engine.assign_flow(idx, bl.first, bl.second);
  }
  Case c = run_case(name, min_ms, [&] {
    engine.iterate();
    return static_cast<double>(inst.flows.size());
  });
  if (threads > 0) c.barriers_per_iter = engine.barriers_per_iter();
  return c;
}

// One sequential NED iteration plus the fused F-NORM, as the sequential
// backend runs a round.
Case bench_ned_fnorm(const Instance& inst, const std::string& name,
                     double min_ms) {
  core::NumProblem p(inst.caps);
  for (const auto& [route, blocks] : inst.flows) {
    p.add_flow(route, core::Utility::log_utility());
  }
  core::NedSolver ned(p);
  std::vector<double> out(p.num_slots());
  core::NormScratch scratch;
  return run_case(name, min_ms, [&] {
    ned.iterate();
    core::f_norm_from_alloc(p, ned.rates(), ned.link_alloc(),
                            ned.link_fixed(), out, scratch);
    return static_cast<double>(inst.flows.size());
  });
}

Case bench_rate_codec(double min_ms) {
  Rng rng(3);
  std::vector<double> rates(4096);
  for (auto& r : rates) r = rng.uniform(1e6, 40e9);
  std::size_t i = 0;
  return run_case("rate_codec", min_ms, [&] {
    double acc = 0.0;
    for (int n = 0; n < 1024; ++n) {
      const std::uint16_t code = encode_rate(rates[i++ & 4095]);
      acc += decode_rate(code);
    }
    g_sink = acc;
    return 1024.0;
  });
}

Case bench_message_codec(double min_ms) {
  core::FlowletStartMsg m;
  m.flow_key = 12345;
  m.src_host = 17;
  m.dst_host = 99;
  return run_case("message_codec", min_ms, [&] {
    double acc = 0.0;
    for (int n = 0; n < 1024; ++n) {
      const auto buf = core::encode(m);
      acc += static_cast<double>(core::decode_flowlet_start(buf).flow_key);
    }
    g_sink = acc;
    return 1024.0;
  });
}

}  // namespace

int main(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  const double min_ms =
      flags.double_flag("min-ms", 200.0, "measured time per case (ms)");
  const bool quick = flags.bool_flag(
      "quick", false, "skip the largest problem sizes (CI smoke)");
  const bool pin = flags.bool_flag(
      "pin", false, "also run the parallel engine with row-pinned workers");
  const auto json_path = flags.string_flag(
      "json", "BENCH_ned_micro.json",
      "machine-readable results file (empty disables)");
  flags.done(
      "Microbenchmarks for the NED/F-NORM/parallel inner loops and the "
      "wire codecs (bench_util timers; no external dependency).");

  bench::banner("NED allocator microbenchmarks",
                "per-iteration costs behind the §6.1 table");

  std::vector<Case> cases;
  cases.push_back(bench_ned_iteration(128, 1024, min_ms));
  cases.push_back(bench_ned_iteration(384, 3072, min_ms));
  if (!quick) {
    cases.push_back(bench_ned_iteration(768, 6144, min_ms));
    cases.push_back(bench_ned_iteration(1536, 12288, min_ms));
    cases.push_back(bench_ned_iteration(1536, 49152, min_ms));
  }
  cases.push_back(bench_f_norm(3072, false, min_ms));
  cases.push_back(bench_f_norm(3072, true, min_ms));
  if (!quick) {
    cases.push_back(bench_f_norm(12288, false, min_ms));
    cases.push_back(bench_f_norm(12288, true, min_ms));
  }
  for (const std::int32_t blocks : {1, 2, 4, 8}) {
    if (quick && blocks > 4) continue;
    const Instance inst(768, 6144, blocks);
    cases.push_back(bench_parallel_iteration(
        inst, blocks, 0, false, bench::fmt("parallel_iteration/%d", blocks),
        min_ms));
    if (pin) {
      cases.push_back(bench_parallel_iteration(
          inst, blocks, 0, true,
          bench::fmt("parallel_iteration/%d/pinned", blocks), min_ms));
    }
  }
  // Fixed (grid side, threads) rows: their barrier cost is gated.
  for (const auto& [blocks, threads] :
       {std::pair{8, 2}, std::pair{8, 1}, std::pair{8, 8}, std::pair{4, 16},
        std::pair{2, 2}}) {
    const Instance inst(768, 6144, blocks);
    cases.push_back(bench_parallel_iteration(
        inst, blocks, threads, false,
        bench::fmt("parallel_iteration/%dx%d/t%d", blocks, blocks, threads),
        min_ms));
  }
  {
    // flowbench solve_par's shape: 64 racks x 16 hosts, 100k flows.
    const Instance shape(1024, 100000, 8);
    cases.push_back(
        bench_ned_fnorm(shape, "solve_shape/1024/100000/seq", min_ms));
    for (const std::int32_t threads : {1, 2}) {
      cases.push_back(bench_parallel_iteration(
          shape, 8, threads, false,
          bench::fmt("solve_shape/1024/100000/8x8/t%d", threads), min_ms));
    }
  }
  cases.push_back(bench_rate_codec(min_ms));
  cases.push_back(bench_message_codec(min_ms));

  bench::Table table(
      {"case", "time/iter", "items/sec", "iters", "barriers/iter"});
  for (const Case& c : cases) {
    table.add_row({c.name,
                   c.ns_per_iter >= 1e6
                       ? bench::fmt("%.0f us", c.ns_per_iter / 1e3)
                       : bench::fmt("%.0f ns", c.ns_per_iter),
                   bench::fmt("%.3gM", c.items_per_sec / 1e6),
                   bench::fmt("%lld", static_cast<long long>(c.iters)),
                   c.barriers_per_iter >= 0
                       ? bench::fmt("%d", c.barriers_per_iter)
                       : std::string("-")});
  }
  table.print();

  if (!json_path.empty()) {
    bench::Json json;
    json.add_run_metadata();
    for (const Case& c : cases) {
      auto& j = json.append("cases");
      j.set("name", c.name);
      j.set("ns_per_iter", c.ns_per_iter);
      j.set("items_per_sec", c.items_per_sec);
      if (c.barriers_per_iter >= 0) {
        j.set("cost.par.barriers_per_iter", c.barriers_per_iter);
      }
    }
    json.write_file(json_path);
  }
  return 0;
}
