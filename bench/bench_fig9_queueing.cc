// Reproduces Figure 9 (result G): 99th-percentile queueing delay on
// 2-hop and 4-hop network paths, from queue lengths sampled every 1 ms.
//
// Paper shape: Flowtune keeps p99 path queueing under 8.9 us at every
// load; at 0.8 load XCP carries ~3.5x longer queues and DCTCP ~12x.
// pFabric and sfqCoDel are omitted, as in the paper: their queues are
// not FIFO, so sampled lengths do not give a meaningful path delay.
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
  flags.done("Reproduces Figure 9 (p99 path queueing delay).");

  banner("p99 queueing delay on 2-hop and 4-hop paths",
         "Flowtune paper Figure 9 / result (G)");

  const Scheme schemes[] = {Scheme::kFlowtune, Scheme::kDctcp,
                            Scheme::kXcp};
  Table table({"scheme", "load", "p99 2-hop (us)", "p99 4-hop (us)"});
  double ft_4hop_at_08 = 0;
  for (const Scheme s : schemes) {
    for (const double load : {0.2, 0.4, 0.6, 0.8}) {
      ExpConfig cfg;
      cfg.traffic.load = load;
      cfg.traffic.workload = wl::Workload::kWeb;
      cfg.scheme = s;
      cfg.duration = from_ms(dur_ms);
      const ExpResult r = run_experiment(cfg);
      print_sim_cost(r);
      if (s == Scheme::kFlowtune && load == 0.8) {
        ft_4hop_at_08 = r.p99_queue_4hop_us;
      }
      table.add_row({scheme_name(s), fmt("%.1f", load),
                     fmt("%.2f", r.p99_queue_2hop_us),
                     fmt("%.2f", r.p99_queue_4hop_us)});
    }
  }
  table.print();
  std::printf(
      "\nPaper: Flowtune < 8.9 us everywhere; DCTCP ~12x and XCP ~3.5x "
      "Flowtune's at 0.8 load. (Flowtune 4-hop p99 here: %.2f us)\n",
      ft_4hop_at_08);
  return 0;
}
