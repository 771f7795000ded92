// Reproduces the §6.1 multicore benchmark table:
//
//   Cores  Nodes  Flows   Cycles    Time
//   4      384    3072    19896.6   8.29 us
//   ...
//   64     4608   49152   73703.2   30.71 us
//
// "Cores" in the paper is the number of FlowBlocks (the paper maps
// multiple FlowBlocks per physical core); each row runs the partitioned
// NED+F-NORM engine of §5 with the same block counts (2/4/8 blocks ->
// 4/16/64 FlowBlocks) on synthetic uniform traffic. The number of OS
// threads defaults to the host's hardware concurrency -- on a machine
// with fewer cores than the paper's 80-core testbed, per-iteration times
// measure algorithmic cost, not parallel speedup (see EXPERIMENTS.md).
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "core/parallel.h"
#include "core/problem.h"
#include "topo/clos.h"
#include "topo/partition.h"

namespace {

using namespace ft;

struct Row {
  std::int32_t blocks;  // n; FlowBlocks = n^2
  std::int32_t nodes;
  std::int32_t flows;
};

void run_row(const Row& row, std::int32_t iters, std::int32_t threads,
             bool pin, ft::bench::Table& table, ft::bench::Json& json) {
  topo::ClosConfig cfg;
  cfg.servers_per_rack = 16;
  cfg.racks = row.nodes / cfg.servers_per_rack;
  cfg.spines = 4;
  const topo::ClosTopology clos(cfg);
  const auto part = topo::BlockPartition::make(clos, row.blocks);

  core::NumProblem problem(clos.graph().capacities());

  core::ParallelConfig pcfg;
  pcfg.num_blocks = row.blocks;
  pcfg.num_threads = threads;
  pcfg.gamma = 1.0;
  pcfg.pin.enable = pin;
  core::ParallelNed engine(problem, part, pcfg);

  Rng rng(42);
  const auto hosts = static_cast<std::uint64_t>(clos.num_hosts());
  for (std::int32_t f = 0; f < row.flows; ++f) {
    const auto s = static_cast<std::int32_t>(rng.below(hosts));
    auto d = static_cast<std::int32_t>(rng.below(hosts - 1));
    if (d >= s) ++d;
    const auto path =
        clos.host_path(clos.host(s), clos.host(d), rng.next());
    std::vector<LinkId> links(path.begin(), path.end());
    const core::FlowIndex idx =
        problem.add_flow(links, core::Utility::log_utility());
    engine.assign_flow(idx, part.block_of_host(clos, clos.host(s)),
                       part.block_of_host(clos, clos.host(d)));
  }

  // Warmup, then measure.
  for (int i = 0; i < 20; ++i) engine.iterate();
  std::vector<double> us;
  std::vector<double> cycles;
  for (std::int32_t i = 0; i < iters; ++i) {
    engine.iterate();
    us.push_back(engine.last_iter_seconds() * 1e6);
    cycles.push_back(static_cast<double>(engine.last_iter_cycles()));
  }
  std::sort(us.begin(), us.end());
  std::sort(cycles.begin(), cycles.end());
  const double med_us = us[us.size() / 2];
  const double med_cycles = cycles[cycles.size() / 2];

  table.add_row({ft::bench::fmt("%d", row.blocks * row.blocks),
                 ft::bench::fmt("%d", row.nodes),
                 ft::bench::fmt("%d", row.flows),
                 ft::bench::fmt("%.1f", med_cycles),
                 ft::bench::fmt("%.2f us", med_us),
                 ft::bench::fmt("%d", engine.num_threads())});
  auto& j = json.append("rows");
  j.set("flow_blocks", row.blocks * row.blocks);
  j.set("nodes", row.nodes);
  j.set("flows", row.flows);
  j.set("median_cycles", med_cycles);
  j.set("median_us", med_us);
  j.set("threads", engine.num_threads());
  if (!engine.pinning().empty()) j.set("pinning", engine.pinning());
  // Paper throughput check: flows allocated per second of iteration time.
  j.set("flows_per_sec", med_us > 0.0 ? row.flows / (med_us / 1e6) : 0.0);
}

}  // namespace

int main(int argc, char** argv) {
  ft::bench::Flags flags(argc, argv);
  const auto iters =
      static_cast<std::int32_t>(flags.int_flag("iters", 200, "timed iterations per row"));
  const auto threads = static_cast<std::int32_t>(
      flags.int_flag("threads", 0, "worker threads (0 = hardware)"));
  const bool full = flags.bool_flag("full", false,
                                    "include the largest (4608-node) rows");
  const bool pin = flags.bool_flag(
      "pin", false, "pin worker threads by FlowBlock row (§6.1)");
  const auto json_path = flags.string_flag(
      "json", "BENCH_table1_multicore.json",
      "machine-readable results file (empty disables)");
  flags.done("Reproduces the paper's §6.1 multicore allocator benchmark.");

  ft::bench::banner("Multicore NED allocator latency",
                    "Flowtune paper §6.1 benchmark table");

  std::vector<Row> rows = {
      {2, 384, 3072},    // 4 FlowBlocks
      {4, 768, 6144},    // 16 FlowBlocks
      {8, 1536, 12288},  // 64 FlowBlocks
      {8, 1536, 24576},  {8, 1536, 49152},
  };
  if (full) {
    rows.push_back({8, 3072, 49152});
    rows.push_back({8, 4608, 49152});
  }

  ft::bench::Table table({"FlowBlocks", "Nodes", "Flows", "Cycles",
                          "Time/iter", "Threads"});
  ft::bench::Json json;
  json.add_run_metadata("", ft::bench::fmt("threads=%d pin=%d", threads,
                                           pin ? 1 : 0));
  for (const Row& row : rows) run_row(row, iters, threads, pin, table, json);
  table.print();
  if (!json_path.empty()) json.write_file(json_path);

  std::printf(
      "\nPaper reference (8x10-core E7-8870): 8.29 us (4 blocks, 384 "
      "nodes) to 30.71 us (64 blocks, 4608 nodes).\n"
      "Throughput check: 4608 nodes x 10G ~ 46 Tbit/s allocated per "
      "iteration interval.\n");
  return 0;
}
