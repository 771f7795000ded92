// The Flowtune allocator as a standalone daemon: the production shape of
// §6.2/§7. Endpoint agents (net::EndpointAgent) connect over TCP or a
// Unix-domain socket, send flowlet start/end notifications, and receive
// batched rate updates as the epoll-driven service runs the NED+F-NORM
// iteration on its timer.
//
//   $ ./allocator_server --port=9090
//   $ ./allocator_server --unix=/tmp/flowtune.sock --period-us=100
//
// Flowlet churn is handled through the allocator's key->slot map (slots
// are recycled by NumProblem's free list, so wire-level flow keys -- not
// slot indices -- are the only stable handle; the pre-daemon version of
// this example tracked raw FlowIndex values and could double-free a
// recycled slot).
#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/allocator.h"
#include "core/backend.h"
#include "net/client.h"
#include "net/epoll_loop.h"
#include "net/server.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/stats_socket.h"
#include "obs/trace.h"
#include "topo/clos.h"
#include "topo/partition.h"

namespace {

ft::net::EpollLoop* g_loop = nullptr;

void handle_signal(int) {
  if (g_loop != nullptr) g_loop->stop();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ft;

  bench::Flags flags(argc, argv);
  topo::ClosConfig tcfg;
  tcfg.racks = static_cast<std::int32_t>(
      flags.int_flag("racks", 9, "Clos racks"));
  tcfg.servers_per_rack = static_cast<std::int32_t>(
      flags.int_flag("servers", 16, "servers per rack"));
  tcfg.spines = static_cast<std::int32_t>(
      flags.int_flag("spines", 4, "Clos spines"));

  core::AllocatorConfig acfg;
  acfg.gamma = flags.double_flag("gamma", acfg.gamma, "NED step size");
  acfg.threshold = flags.double_flag("threshold", acfg.threshold,
                                     "notification threshold");

  net::ServerConfig scfg;
  scfg.tcp_port = static_cast<int>(
      flags.int_flag("port", 9090, "TCP listen port (-1 disables)"));
  scfg.unix_path =
      flags.string_flag("unix", "", "Unix-domain socket path");
  scfg.iteration_period_us = flags.int_flag(
      "period-us", 100, "allocation round period (us)");
  scfg.num_shards = static_cast<int>(flags.int_flag(
      "shards", 0, "I/O shard threads (0 = single-threaded service)"));
  const auto alloc_threads = flags.int_flag(
      "alloc-threads", 0,
      "ParallelNed solver threads (0 = sequential NED backend)");
  auto blocks = static_cast<std::int32_t>(flags.int_flag(
      "blocks", 0,
      "FlowBlock grid side for --alloc-threads (power of two; 0 = "
      "largest fitting the rack count)"));
  const bool pin_cores = flags.bool_flag(
      "pin-cores", false,
      "pin ParallelNed workers by FlowBlock row and co-schedule I/O "
      "shards onto the same cores (§6.1); defaults shards to one per "
      "block row");
  const auto pin_cpus = flags.string_flag(
      "pin-cpus", "",
      "explicit CPU list for --pin-cores (comma-separated; empty = all "
      "online CPUs)");
  const bool numa_interleave = flags.bool_flag(
      "numa-interleave", false,
      "spread block rows round-robin across NUMA nodes when pinning");
  const auto stats_sec =
      flags.double_flag("stats-sec", 5, "stats print interval (s)");
  const auto stats_socket_path = flags.string_flag(
      "stats-socket", "",
      "live stats plane: Unix socket serving metric snapshots "
      "(echo json|prom|trace|flight | nc -U <path>)");
  const auto stats_interval = flags.double_flag(
      "stats-interval", 0,
      "periodic JSON metrics snapshot interval (s; 0 disables)");
  const auto stats_file = flags.string_flag(
      "stats-file", "",
      "write --stats-interval snapshots here (overwritten each time) "
      "instead of stderr");
  const auto trace_out = flags.string_flag(
      "trace-out", "",
      "enable phase tracing and dump chrome://tracing JSON here on "
      "shutdown");
  const auto flight_out = flags.string_flag(
      "flight-out", "",
      "auto-flush the flight recorder (per-round black box) here on "
      "shutdown; it is always live via `echo flight | nc -U "
      "<stats-socket>`");
  const auto stall_every = flags.int_flag(
      "stall-every-rounds", 0,
      "fault injection: busy-spin --stall-us inside every Nth round's "
      "fanout phase (flight-recorder demos; 0 disables)");
  const auto stall_us =
      flags.int_flag("stall-us", 0, "stall length for --stall-every-rounds");
  scfg.heartbeat_period_us = flags.int_flag(
      "heartbeat-period-us", 0,
      "service->agent heartbeat period carrying the rate lease "
      "(0 disables liveness beacons)");
  scfg.rate_lease_us = flags.int_flag(
      "rate-lease-us", 0,
      "rate lease advertised on heartbeats: agents that hear nothing "
      "for this long decay to their fallback rate (0 = no lease)");
  scfg.peer_timeout_us = flags.int_flag(
      "peer-timeout-us", 0,
      "cull connections silent for this long, freeing their flows "
      "(agents should heartbeat at a fraction of this; 0 disables)");
  flags.done(
      "Flowtune allocator daemon: serves endpoint agents over TCP/Unix "
      "sockets, runs the NED+F-NORM round every --period-us. "
      "--shards spreads connection I/O over N epoll threads behind one "
      "listener; --alloc-threads runs the §5 multicore allocation "
      "backend; --pin-cores applies the §6.1 block-row -> CPU mapping "
      "to both.");

  topo::ClosTopology clos(tcfg);
  std::vector<double> caps = clos.graph().capacities();
  if (blocks <= 0) blocks = topo::BlockPartition::default_blocks(clos);

  core::CpuMapConfig pin;
  // An explicit CPU list or NUMA layout is an unambiguous request to
  // pin: honor it rather than silently ignoring the flags without
  // --pin-cores.
  pin.enable = pin_cores || !pin_cpus.empty() || numa_interleave;
  if (pin.enable && !pin_cores) {
    std::fprintf(stderr,
                 "note: --pin-cpus/--numa-interleave imply --pin-cores\n");
  }
  pin.numa_interleave = numa_interleave;
  if (!core::CpuMap::parse_cpulist(pin_cpus, pin.cpus)) {
    std::fprintf(stderr, "bad --pin-cpus list: '%s' (cpulist syntax, "
                         "e.g. 0-3,8,10-11)\n",
                 pin_cpus.c_str());
    return 2;
  }
  {
    // Validate against the actual online CPU ids from sysfs (ids can be
    // sparse, and hardware_concurrency is a cgroup-clamped count, not a
    // max id).
    std::vector<int> online;
    for (const auto& node : core::CpuMap::numa_nodes()) {
      online.insert(online.end(), node.begin(), node.end());
    }
    for (const int cpu : pin.cpus) {
      if (std::find(online.begin(), online.end(), cpu) == online.end()) {
        std::fprintf(stderr,
                     "warning: --pin-cpus %d is not an online CPU; "
                     "pinning to it will be ignored\n",
                     cpu);
      }
    }
  }
  if (pin.enable && scfg.num_shards == 0) {
    // §6.1 co-scheduling default: one I/O shard per FlowBlock row,
    // sharing that row's core with its ParallelNed worker.
    scfg.num_shards = static_cast<int>(blocks);
  }
  scfg.pin = pin;

  // One shared registry for the whole daemon: core.* (allocator +
  // backend), net.* (service shards), svc.* (round phases) all land in
  // the same snapshot the stats plane serves.
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  acfg.metrics = &reg;
  scfg.metrics = &reg;
  scfg.stall_every_rounds = static_cast<std::uint64_t>(
      std::max<std::int64_t>(0, stall_every));
  scfg.stall_us = stall_us;
  if (!trace_out.empty()) obs::PhaseTracer::set_enabled(true);

  std::unique_ptr<core::Allocator> alloc_holder;
  if (alloc_threads > 0) {
    core::ParallelConfig pcfg;
    pcfg.num_threads = static_cast<std::int32_t>(alloc_threads);
    pcfg.pin = pin;
    alloc_holder = std::make_unique<core::Allocator>(
        std::move(caps), acfg,
        core::parallel_backend(topo::BlockPartition::make(clos, blocks),
                               pcfg));
  } else {
    alloc_holder = std::make_unique<core::Allocator>(std::move(caps),
                                                     acfg);
  }
  core::Allocator& alloc = *alloc_holder;

  if (scfg.tcp_port < 0 && scfg.unix_path.empty()) {
    std::fprintf(stderr, "need --port or --unix (see --help)\n");
    return 1;
  }

  net::EpollLoop loop;
  loop.bind_metrics(reg, "net.alloc");
  net::AllocatorService svc(loop, alloc, clos, scfg);
  std::unique_ptr<obs::StatsSocket> stats_socket;
  if (!stats_socket_path.empty()) {
    stats_socket =
        std::make_unique<obs::StatsSocket>(loop, stats_socket_path, reg);
    stats_socket->set_flight(&svc.flight());
  }
  g_loop = &loop;
  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);

  std::printf("flowtune allocator daemon: %d hosts, %zu links, "
              "%s backend, %d I/O shard(s)\n",
              clos.num_hosts(), alloc.problem().num_links(),
              alloc.backend().name(), svc.num_shards());
  if (!svc.pinning().empty()) {
    std::printf("  pinned shard->cpu layout: %s (one shard per block "
                "row)\n",
                svc.pinning().c_str());
  }
  if (svc.tcp_port() >= 0) {
    std::printf("  tcp   127.0.0.1:%d\n", svc.tcp_port());
  }
  if (!svc.unix_path().empty()) {
    std::printf("  unix  %s\n", svc.unix_path().c_str());
  }
  std::printf("  round period %lld us, gamma %.2f, threshold %.3f\n",
              static_cast<long long>(scfg.iteration_period_us), acfg.gamma,
              acfg.threshold);

  if (stats_socket != nullptr) {
    std::printf("  stats %s\n", stats_socket_path.c_str());
  }

  const auto snap_period_us =
      static_cast<std::int64_t>(stats_interval * 1e6);
  if (snap_period_us > 0) {
    loop.add_periodic(snap_period_us, [&] {
      const std::string doc = obs::to_json(reg);
      if (stats_file.empty()) {
        std::fwrite(doc.data(), 1, doc.size(), stderr);
        std::fputc('\n', stderr);
      } else if (std::FILE* f = std::fopen(stats_file.c_str(), "w")) {
        std::fwrite(doc.data(), 1, doc.size(), f);
        std::fputc('\n', f);
        std::fclose(f);
      }
    });
  }

  const auto stats_period_us = static_cast<std::int64_t>(stats_sec * 1e6);
  if (stats_period_us > 0) {
    loop.add_periodic(stats_period_us, [&] {
      const auto& s = svc.stats();
      std::printf(
          "[stats] conns=%zu flows=%zu starts=%llu ends=%llu "
          "iters=%llu updates=%llu (coalesced %llu) out=%lld B "
          "(wire %lld B) in=%lld B\n",
          svc.num_connections(), alloc.num_active_flowlets(),
          static_cast<unsigned long long>(s.flowlet_starts),
          static_cast<unsigned long long>(s.flowlet_ends),
          static_cast<unsigned long long>(s.iterations),
          static_cast<unsigned long long>(s.updates_sent),
          static_cast<unsigned long long>(s.updates_coalesced),
          static_cast<long long>(s.bytes_out),
          static_cast<long long>(s.wire_bytes_out),
          static_cast<long long>(s.bytes_in));
      std::fflush(stdout);
    });
  }

  loop.run();
  if (!flight_out.empty()) {
    if (svc.flight().dump_to_file(flight_out)) {
      std::printf("flight recorder dump written to %s (%llu rounds, "
                  "%llu promoted)\n",
                  flight_out.c_str(),
                  static_cast<unsigned long long>(
                      svc.flight().rounds_seen()),
                  static_cast<unsigned long long>(svc.flight().promoted()));
    } else {
      std::fprintf(stderr, "failed to write flight dump to %s\n",
                   flight_out.c_str());
    }
  }
  if (!trace_out.empty()) {
    if (obs::PhaseTracer::dump_json(trace_out)) {
      std::printf("phase trace written to %s\n", trace_out.c_str());
    } else {
      std::fprintf(stderr, "failed to write trace to %s\n",
                   trace_out.c_str());
    }
  }
  std::printf("shutting down: %llu flowlet starts, %llu iterations\n",
              static_cast<unsigned long long>(svc.stats().flowlet_starts),
              static_cast<unsigned long long>(svc.stats().iterations));
  return 0;
}
