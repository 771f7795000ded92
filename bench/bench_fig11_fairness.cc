// Reproduces Figure 11: per-flow proportional-fairness score relative to
// Flowtune. A network assigning flow rates r_i scores sum log2(r_i);
// we report the mean per-flow score difference (scheme - Flowtune), so
// -1.0 means flows got on average half the rate Flowtune gave them.
//
// Paper shape: DCTCP 1.0-1.9 points below Flowtune, pFabric 0.45-0.83
// below, XCP ~1.3 below, sfqCoDel ~0.25 below.
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
  flags.done("Reproduces Figure 11 (proportional fairness relative to "
             "Flowtune).");

  banner("Per-flow proportional fairness relative to Flowtune",
         "Flowtune paper Figure 11");

  const Scheme others[] = {Scheme::kDctcp, Scheme::kPfabric,
                           Scheme::kSfqCodel, Scheme::kXcp};
  Table table({"scheme", "load", "score - Flowtune (log2 points)"});
  for (const double load : {0.2, 0.4, 0.6, 0.8}) {
    ExpConfig cfg;
    cfg.traffic.load = load;
    cfg.traffic.workload = wl::Workload::kWeb;
    cfg.duration = from_ms(dur_ms);
    cfg.scheme = Scheme::kFlowtune;
    const ExpResult ft_r = run_experiment(cfg);
    print_sim_cost(ft_r);
    for (const Scheme s : others) {
      cfg.scheme = s;
      const ExpResult r = run_experiment(cfg);
      print_sim_cost(r);
      table.add_row({scheme_name(s), fmt("%.1f", load),
                     fmt("%+.2f", r.fairness_score - ft_r.fairness_score)});
    }
  }
  table.print();
  std::printf(
      "\nPaper: DCTCP -1.0..-1.9, pFabric -0.45..-0.83, XCP ~-1.3, "
      "sfqCoDel ~-0.25 relative to Flowtune (negative = less fair).\n");
  return 0;
}
