// Regression tests for the allocation-round hot path's "allocation-free
// in steady state" guarantee (§6.1: the allocator core must keep up with
// the network, so a round must not touch the heap once warm).
//
// A counting global operator new/delete tallies every heap allocation in
// the process; the tests warm an allocator up, then assert that further
// run_iteration rounds -- including rounds that emit a full set of rate
// updates -- perform exactly zero allocations, for both the sequential
// and the §5 parallel backend. A churn-spike test checks the re-reserve
// behaviour: growth happens up front (bounded allocations at flowlet
// start), never inside the emission loop.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "common/rng.h"
#include "core/allocator.h"
#include "core/backend.h"
#include "core/messages.h"
#include "net/frame.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "topo/clos.h"
#include "topo/partition.h"

namespace {

std::atomic<std::uint64_t> g_news{0};

}  // namespace

// Counting overrides: every allocation in the binary (any thread) goes
// through these, so a parallel-backend worker allocating mid-round is
// caught too.
void* operator new(std::size_t size) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace ft::core {
namespace {

topo::ClosTopology small_clos() {
  topo::ClosConfig cfg;
  cfg.racks = 8;
  cfg.servers_per_rack = 2;
  cfg.spines = 2;
  return topo::ClosTopology(cfg);
}

// The routes of flows first_key, first_key + 1, ...: random host pairs.
std::vector<std::vector<LinkId>> random_routes(const topo::ClosTopology& clos,
                                               int count,
                                               std::uint64_t first_key) {
  Rng rng(first_key);
  const int hosts = clos.num_hosts();
  std::vector<std::vector<LinkId>> routes;
  for (int i = 0; i < count; ++i) {
    const auto src = static_cast<int>(rng.below(hosts));
    auto dst = static_cast<int>(rng.below(hosts - 1));
    if (dst >= src) ++dst;
    const auto p = clos.host_path(clos.host(src), clos.host(dst),
                                  first_key + static_cast<std::uint64_t>(i));
    routes.emplace_back(p.begin(), p.end());
  }
  return routes;
}

void start_random_flows(Allocator& alloc, const topo::ClosTopology& clos,
                        int count, std::uint64_t first_key) {
  const auto routes = random_routes(clos, count, first_key);
  for (std::size_t i = 0; i < routes.size(); ++i) {
    ASSERT_TRUE(alloc.flowlet_start(first_key + i, routes[i]));
  }
}

std::uint64_t allocations_during_rounds(Allocator& alloc, int rounds,
                                        std::vector<RateUpdate>& out) {
  const std::uint64_t before = g_news.load(std::memory_order_relaxed);
  for (int i = 0; i < rounds; ++i) {
    out.clear();
    alloc.run_iteration(out);
  }
  return g_news.load(std::memory_order_relaxed) - before;
}

TEST(ZeroAllocTest, SequentialSteadyStateRoundsAreAllocationFree) {
  const auto clos = small_clos();
  Allocator alloc(clos.graph().capacities(), AllocatorConfig{});
  start_random_flows(alloc, clos, 300, 1);
  std::vector<RateUpdate> out;
  // Warm up: sizes every scratch vector and the recycled out-vector.
  for (int i = 0; i < 5; ++i) {
    out.clear();
    alloc.run_iteration(out);
  }
  EXPECT_EQ(allocations_during_rounds(alloc, 50, out), 0u);
}

TEST(ZeroAllocTest, SequentialZeroThresholdEmitsEveryRoundStillAllocFree) {
  // threshold 0 re-emits every flow's rate on every round: the strongest
  // case for the emission loop (maximum push_backs + encodes per round).
  const auto clos = small_clos();
  AllocatorConfig cfg;
  cfg.threshold = 0.0;
  Allocator alloc(clos.graph().capacities(), cfg);
  start_random_flows(alloc, clos, 300, 1);
  std::vector<RateUpdate> out;
  for (int i = 0; i < 5; ++i) {
    out.clear();
    alloc.run_iteration(out);
  }
  const std::uint64_t allocs = allocations_during_rounds(alloc, 50, out);
  EXPECT_GT(out.size(), 0u);  // rounds really are emitting
  EXPECT_EQ(allocs, 0u);
}

TEST(ZeroAllocTest, ParallelBackendSteadyStateRoundsAreAllocationFree) {
  const auto clos = small_clos();
  ParallelConfig pcfg;
  pcfg.num_threads = 2;
  Allocator alloc(clos.graph().capacities(), AllocatorConfig{},
                  parallel_backend(topo::BlockPartition::make(clos, 4),
                                   pcfg));
  start_random_flows(alloc, clos, 300, 1);
  std::vector<RateUpdate> out;
  for (int i = 0; i < 5; ++i) {
    out.clear();
    alloc.run_iteration(out);
  }
  EXPECT_EQ(allocations_during_rounds(alloc, 50, out), 0u);

  // Then with churn between the rounds, still without Allocator::reserve
  // (as allocator_server --alloc-threads runs): 10 flows end and their
  // routes start again under new keys, so the slot count and every
  // FlowBlock's population hold. The churn lands in the bands at the
  // next round; the band arrays, pending churn lists and per-range
  // update buffers keep their capacity, so neither the churn nor the
  // rounds allocate.
  const auto routes = random_routes(clos, 300, 1);  // routes[key - 1]
  std::uint64_t next_key = 301;
  const auto churn_and_round = [&] {
    for (std::uint64_t k = next_key - 300; k < next_key - 290; ++k) {
      EXPECT_TRUE(alloc.flowlet_end(k));
    }
    for (int i = 0; i < 10; ++i, ++next_key) {
      EXPECT_TRUE(alloc.flowlet_start(next_key, routes[(next_key - 1) % 300]));
    }
    out.clear();
    alloc.run_iteration(out);
  };
  for (int i = 0; i < 5; ++i) churn_and_round();
  const std::uint64_t before = g_news.load(std::memory_order_relaxed);
  for (int i = 0; i < 50; ++i) churn_and_round();
  EXPECT_EQ(g_news.load(std::memory_order_relaxed) - before, 0u);
  EXPECT_GE(out.size(), 10u);  // every new flow's first rate goes out
}

TEST(ZeroAllocTest, ParallelFullEmissionAtASettledSlotCountIsAllocationFree) {
  // A range's update buffer is sized to its slot range, not to what a
  // round happened to emit: once the slot count settles, a round that
  // re-emits every flow after quiet rounds allocates nothing, with no
  // Allocator::reserve. 298 flows, then 2 more, so the worker's range
  // grows from 149 slots to 150 in a round that emits only a few.
  const auto clos = small_clos();
  ParallelConfig pcfg;
  pcfg.num_threads = 2;
  Allocator alloc(clos.graph().capacities(), AllocatorConfig{},
                  parallel_backend(topo::BlockPartition::make(clos, 4),
                                   pcfg));
  start_random_flows(alloc, clos, 298, 1);
  std::vector<RateUpdate> out;
  for (int i = 0; i < 5; ++i) {
    out.clear();
    alloc.run_iteration(out);
  }
  start_random_flows(alloc, clos, 2, 299);
  for (int i = 0; i < 5; ++i) {
    out.clear();
    alloc.run_iteration(out);
  }
  for (std::uint64_t key = 1; key <= 300; ++key) {
    alloc.invalidate_notification(key);
  }
  EXPECT_EQ(allocations_during_rounds(alloc, 1, out), 0u);
  EXPECT_EQ(out.size(), 300u);
}

TEST(ZeroAllocTest, MetricsAndTracingEnabledRoundsStayAllocationFree) {
  // The telemetry subsystem's core promise: binding a shared registry
  // and enabling phase tracing must not cost the round a single heap
  // allocation. Handles resolve at construction (cold path); the record
  // path is striped atomics; the tracer's per-thread ring registers on
  // the first span, which the warmup covers.
  const auto clos = small_clos();
  obs::MetricsRegistry reg;
  AllocatorConfig cfg;
  cfg.metrics = &reg;
  cfg.threshold = 0.0;  // maximum emission volume per round
  Allocator alloc(clos.graph().capacities(), cfg);
  start_random_flows(alloc, clos, 300, 1);
  obs::PhaseTracer::set_enabled(true);
  std::vector<RateUpdate> out;
  for (int i = 0; i < 5; ++i) {
    out.clear();
    alloc.run_iteration(out);
  }
  const std::uint64_t allocs = allocations_during_rounds(alloc, 50, out);
  obs::PhaseTracer::set_enabled(false);
  obs::PhaseTracer::reset();
  EXPECT_EQ(allocs, 0u);
  // The rounds really were recorded while staying allocation-free.
  EXPECT_EQ(reg.counter("core.iterations").value(), 55u);
  EXPECT_EQ(reg.histo("core.solve_us").snapshot().count, 55u);
}

TEST(ZeroAllocTest, ChurnSpikeReservesUpFrontNotMidRound) {
  // After a churn spike doubles the flow count, the next round may grow
  // the out-vector -- but only via the single up-front reserve, and once
  // re-warmed the rounds are allocation-free again.
  const auto clos = small_clos();
  AllocatorConfig cfg;
  cfg.threshold = 0.0;
  Allocator alloc(clos.graph().capacities(), cfg);
  start_random_flows(alloc, clos, 200, 1);
  std::vector<RateUpdate> out;
  for (int i = 0; i < 5; ++i) {
    out.clear();
    alloc.run_iteration(out);
  }
  start_random_flows(alloc, clos, 200, 10'000);  // spike
  // The post-spike round emits 400 updates into a 200-capacity vector.
  // Growth happens up front -- one reserve for `out` plus the solver's
  // rates/norm_rates resizes -- so the allocation count is O(1), not
  // O(updates): the emission loop's push_backs stay within the reserve.
  const std::uint64_t before = g_news.load(std::memory_order_relaxed);
  out.clear();
  alloc.run_iteration(out);
  const std::uint64_t during =
      g_news.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(out.size(), 400u);
  EXPECT_LE(during, 6u);
  // Re-warmed: allocation-free again.
  for (int i = 0; i < 3; ++i) {
    out.clear();
    alloc.run_iteration(out);
  }
  EXPECT_EQ(allocations_during_rounds(alloc, 20, out), 0u);
}

TEST(ZeroAllocTest, FrameWriterSteadyStateBatchesAreAllocationFree) {
  // The fanout path builds one batch per peer per round: rate updates
  // (coalescing latest-wins through the flat open-addressed map) plus
  // the occasional sampled trace-mark echo. Once the payload buffer,
  // the coalescing table and the output vector are warm, a full
  // add+flush cycle must not touch the heap -- flush() clears the
  // table but keeps its capacity.
  net::FrameWriter writer;
  std::vector<std::uint8_t> out;
  auto one_cycle = [&writer, &out] {
    for (std::uint32_t k = 0; k < 300; ++k) {
      core::RateUpdateMsg m;
      m.flow_key = 1000 + k;
      m.rate_code = static_cast<std::uint16_t>(k);
      writer.add(m);
      if (k % 3 == 0) {  // superseded before the flush: coalesces
        m.rate_code = static_cast<std::uint16_t>(k + 1);
        writer.add(m);
      }
    }
    core::TraceMarkMsg mark;
    mark.flow_key = 1001;
    mark.trace_id = 42;
    mark.t_ns[0] = 1;
    writer.add(mark);  // sampling enabled: a mark rides the batch
    // Liveness on: a heartbeat (carrying the rate lease) rides every
    // steady-state period too, and must stay allocation-free.
    writer.add(core::HeartbeatMsg{123456789, 250'000});
    out.clear();
    writer.flush(out);
  };
  for (int i = 0; i < 5; ++i) one_cycle();  // warm
  const std::uint64_t records_before = writer.stats().records;
  const std::uint64_t before = g_news.load(std::memory_order_relaxed);
  for (int i = 0; i < 50; ++i) one_cycle();
  const std::uint64_t during =
      g_news.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(during, 0u);
  // 300 updates (100 of them coalesced in place) + 1 trace mark + 1
  // heartbeat framed per cycle: the batches really carried the full
  // load.
  EXPECT_EQ(writer.stats().records - records_before, 50u * 302u);
  EXPECT_GE(writer.stats().coalesced_updates, 50u * 100u);
}

// Heap allocations during one start+end pass over 512 routes after a
// warm pass over the same routes, with no round in between. The
// sequential allocator needs no warm pass (see
// ReserveCoversSkewedChurnWithoutWarmup).
std::uint64_t allocations_during_warm_churn(Allocator& alloc,
                                            const topo::ClosTopology& clos) {
  alloc.reserve(1024);
  // Pre-resolve the routes so the measured region is pure allocator churn.
  Rng rng(7);
  const int hosts = clos.num_hosts();
  std::vector<std::vector<LinkId>> routes;
  for (int i = 0; i < 512; ++i) {
    const auto src = static_cast<int>(rng.below(hosts));
    auto dst = static_cast<int>(rng.below(hosts - 1));
    if (dst >= src) ++dst;
    const auto p = clos.host_path(clos.host(src), clos.host(dst),
                                  static_cast<std::uint64_t>(i));
    routes.emplace_back(p.begin(), p.end());
  }
  // Warm pass: per-FlowBlock arrays reach steady capacity for these
  // routes.
  for (std::size_t i = 0; i < routes.size(); ++i) {
    EXPECT_TRUE(alloc.flowlet_start(1000 + i, routes[i]));
  }
  for (std::size_t i = 0; i < routes.size(); ++i) {
    EXPECT_TRUE(alloc.flowlet_end(1000 + i));
  }
  const std::uint64_t before = g_news.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < routes.size(); ++i) {
    EXPECT_TRUE(alloc.flowlet_start(5000 + i, routes[i]));
  }
  for (std::size_t i = 0; i < routes.size(); ++i) {
    EXPECT_TRUE(alloc.flowlet_end(5000 + i));
  }
  return g_news.load(std::memory_order_relaxed) - before;
}

TEST(ZeroAllocTest, ReserveMakesChurnAllocationFree) {
  // Allocator::reserve pre-sizes the problem SoA arrays, key map,
  // notification state and emission scratch: flowlet churn below the
  // reserved size performs no allocation at all.
  const auto clos = small_clos();
  Allocator alloc(clos.graph().capacities(), AllocatorConfig{});
  EXPECT_EQ(allocations_during_warm_churn(alloc, clos), 0u);
}

TEST(ZeroAllocTest, ReserveCoversSkewedChurnWithoutWarmup) {
  // Per-flow state lives in slot arrays only, so reserve() bounds churn
  // however the flows spread over links: 512 flows that all leave host 0
  // (its uplink carries every one of them) start and end without a
  // single allocation, with no warm pass first.
  const auto clos = small_clos();
  Allocator alloc(clos.graph().capacities(), AllocatorConfig{});
  alloc.reserve(1024);
  const int hosts = clos.num_hosts();
  std::vector<std::vector<LinkId>> routes;
  for (int i = 0; i < 512; ++i) {
    const int dst = 1 + i % (hosts - 1);
    const auto p = clos.host_path(clos.host(0), clos.host(dst),
                                  static_cast<std::uint64_t>(i));
    routes.emplace_back(p.begin(), p.end());
  }
  const std::uint64_t before = g_news.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < routes.size(); ++i) {
    EXPECT_TRUE(alloc.flowlet_start(1000 + i, routes[i]));
  }
  for (std::size_t i = 0; i < routes.size(); ++i) {
    EXPECT_TRUE(alloc.flowlet_end(1000 + i));
  }
  EXPECT_EQ(g_news.load(std::memory_order_relaxed) - before, 0u);
}

TEST(ZeroAllocTest, ReserveMakesParallelChurnAllocationFree) {
  // The same under the §5 backend, whose assign/unassign only record
  // churn for the next round: each start lands in the pending add list
  // and its end cancels it, so the list stays within the reserved slot
  // count however many pairs arrive between rounds.
  const auto clos = small_clos();
  ParallelConfig pcfg;
  pcfg.num_threads = 2;
  Allocator alloc(clos.graph().capacities(), AllocatorConfig{},
                  parallel_backend(topo::BlockPartition::make(clos, 4),
                                   pcfg));
  EXPECT_EQ(allocations_during_warm_churn(alloc, clos), 0u);
}

}  // namespace
}  // namespace ft::core
