// Reproduces Figure 10 (result H): rate at which the network drops data
// (Gbit/s) per scheme and load.
//
// Paper shape: at 0.8 load sfqCoDel drops >100 Gbit/s (~8% of the bytes
// its servers transmit, 1-in-13) and pFabric ~6%; Flowtune, DCTCP and
// XCP drop negligible amounts.
#include <cstdio>

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
  flags.done("Reproduces Figure 10 (dropped data per second).");

  banner("Dropped data per second", "Flowtune paper Figure 10 / result (H)");

  const Scheme schemes[] = {Scheme::kFlowtune, Scheme::kDctcp,
                            Scheme::kPfabric, Scheme::kSfqCodel,
                            Scheme::kXcp};
  Table table({"scheme", "load", "dropped (Gbps)", "goodput (Gbps)",
               "drop fraction"});
  for (const Scheme s : schemes) {
    for (const double load : {0.2, 0.4, 0.6, 0.8}) {
      ExpConfig cfg;
      cfg.traffic.load = load;
      cfg.traffic.workload = wl::Workload::kWeb;
      cfg.scheme = s;
      cfg.duration = from_ms(dur_ms);
      const ExpResult r = run_experiment(cfg);
      print_sim_cost(r);
      const double frac =
          r.dropped_gbps / std::max(1e-9, r.goodput_gbps + r.dropped_gbps);
      table.add_row({scheme_name(s), fmt("%.1f", load),
                     fmt("%.2f", r.dropped_gbps),
                     fmt("%.0f", r.goodput_gbps),
                     fmt("%.2f%%", 100 * frac)});
    }
  }
  table.print();
  std::printf(
      "\nPaper: sfqCoDel ~8%% and pFabric ~6%% of bytes dropped at 0.8 "
      "load; Flowtune, DCTCP and XCP negligible.\n");
  return 0;
}
