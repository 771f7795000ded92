// Reproduces Figure 8 (result F): improvement ("speedup") in 99th-
// percentile flow completion time from switching each scheme to
// Flowtune, per flow-size bucket and load, on the Web workload.
// FCTs are normalized by the empty-network completion time (§6.5).
//
// Paper shape: vs DCTCP 8.6-10.9x (1 packet) and 2.1-2.9x (1-10
// packets); vs pFabric 1.7-2.4x on 1-packet and large flows with pFabric
// competitive in between; vs sfqCoDel 3.5-3.8x on 10-100 packets at high
// load; vs XCP 2.35x (1 packet) up to 4.1x (large).
#include <cstdio>
#include <map>

#include "bench_util.h"
#include "sim_cost.h"
#include "transport/experiment.h"

int main(int argc, char** argv) {
  using namespace ft;
  using namespace ft::bench;
  using namespace ft::transport;

  Flags flags(argc, argv);
  const double dur_ms =
      flags.double_flag("duration_ms", 12, "measured milliseconds");
  const bool full = flags.bool_flag("full", false,
                                    "4 loads instead of 3, longer runs");
  const auto seed =
      static_cast<std::uint64_t>(flags.int_flag("seed", 1, "workload seed"));
  flags.done("Reproduces Figure 8 (p99 FCT speedup of Flowtune).");

  banner("p99 normalized-FCT speedup of switching to Flowtune",
         "Flowtune paper Figure 8 / result (F)");

  std::vector<double> loads = full
                                  ? std::vector<double>{0.2, 0.4, 0.6, 0.8}
                                  : std::vector<double>{0.2, 0.5, 0.8};

  const Scheme baselines[] = {Scheme::kDctcp, Scheme::kPfabric,
                              Scheme::kSfqCodel, Scheme::kXcp};

  std::map<double, ExpResult> flowtune;
  std::map<std::pair<int, double>, ExpResult> results;
  for (const double load : loads) {
    ExpConfig cfg;
    cfg.traffic.load = load;
    cfg.traffic.workload = wl::Workload::kWeb;
    cfg.traffic.seed = seed;
    cfg.duration = from_ms(full ? 2 * dur_ms : dur_ms);
    cfg.scheme = Scheme::kFlowtune;
    flowtune.emplace(load, run_experiment(cfg));
    print_sim_cost(flowtune.at(load));
    for (const Scheme s : baselines) {
      cfg.scheme = s;
      const auto key = std::make_pair(static_cast<int>(s), load);
      results.emplace(key, run_experiment(cfg));
      print_sim_cost(results.at(key));
    }
  }

  for (const Scheme s : baselines) {
    std::printf("--- speedup vs %s ---\n",
                scheme_name(s));
    Table table({"load", "1 packet", "1-10 pkts", "10-100 pkts",
                 "100-1000 pkts", "large", "(flows)"});
    for (const double load : loads) {
      const ExpResult& ft_r = flowtune.at(load);
      const ExpResult& other =
          results.at(std::make_pair(static_cast<int>(s), load));
      std::vector<std::string> row = {fmt("%.1f", load)};
      std::size_t flows = 0;
      for (std::int32_t b = 0; b < wl::kNumSizeBuckets; ++b) {
        const auto& fb = ft_r.buckets[static_cast<std::size_t>(b)];
        const auto& ob = other.buckets[static_cast<std::size_t>(b)];
        flows += ob.count;
        if (fb.count < 10 || ob.count < 10 || fb.p99_norm_fct <= 0) {
          row.push_back("-");
        } else {
          row.push_back(fmt("%.2fx", ob.p99_norm_fct / fb.p99_norm_fct));
        }
      }
      row.push_back(fmt("%zu", flows));
      table.add_row(std::move(row));
    }
    table.print();
    std::printf("\n");
  }
  std::printf(
      "Paper: DCTCP 8.6-10.9x (1 pkt), 2.1-2.9x (1-10); pFabric 1.7-2.4x "
      "(1 pkt, large); sfqCoDel 3.5-3.8x (10-100, high load); XCP 2.35x "
      "(1 pkt) to 4.1x (large). Values > 1 mean Flowtune is faster.\n");
  return 0;
}
