// Packet-simulator cost of one run_experiment: events popped and peak
// pending events. The figure benches print it on stderr beside each run,
// so their stdout (the figure itself) does not move when only the
// simulator's cost does.
#pragma once

#include <cstdio>

#include "transport/experiment.h"

namespace ft::bench {

inline void print_sim_cost(const transport::ExpResult& r) {
  std::fprintf(stderr,
               "sim cost: %-8s load %.1f: %llu events, %llu peak pending\n",
               r.scheme.c_str(), r.load,
               static_cast<unsigned long long>(r.events),
               static_cast<unsigned long long>(r.peak_pending_events));
}

}  // namespace ft::bench
