// Tests for the allocator facade: flowlet bookkeeping, thresholded update
// emission (§6.4), capacity headroom, message codecs, and end-to-end
// allocation behaviour on the paper's topology.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "common/ratecode.h"
#include "common/rng.h"
#include "core/allocator.h"
#include "core/messages.h"
#include "topo/clos.h"
#include "topo/partition.h"

namespace ft::core {
namespace {

std::vector<LinkId> to_vec(const topo::Path& p) {
  return {p.begin(), p.end()};
}

TEST(MessagesTest, SizesMatchPaper) {
  EXPECT_EQ(kFlowletStartBytes, 16u);
  EXPECT_EQ(kFlowletEndBytes, 4u);
  // Paper encoding (6 B) plus our 2-byte allocator-epoch stamp, the
  // one deliberate deviation from §6.2 (see core/messages.h).
  EXPECT_EQ(kRateUpdateBytes, 6u + 2u);
}

TEST(MessagesTest, RoundTrip) {
  const FlowletStartMsg start{0xDEADBEEF, 42, 1337, 1'000'000, 500, 3};
  EXPECT_EQ(decode_flowlet_start(encode(start)), start);
  const FlowletEndMsg end{0xCAFEBABE};
  EXPECT_EQ(decode_flowlet_end(encode(end)), end);
  const RateUpdateMsg upd{7, encode_rate(3.3e9)};
  EXPECT_EQ(decode_rate_update(encode(upd)), upd);
}

class AllocatorTest : public ::testing::Test {
 protected:
  AllocatorTest()
      : clos_([] {
          topo::ClosConfig cfg;
          cfg.racks = 4;
          cfg.servers_per_rack = 4;
          cfg.spines = 2;
          cfg.fabric_link_bps = 20e9;
          return cfg;
        }()),
        alloc_(clos_.graph().capacities(), AllocatorConfig{}) {}

  std::uint64_t start_flow(std::uint64_t key, int src, int dst) {
    const auto p = clos_.host_path(clos_.host(src), clos_.host(dst), key);
    EXPECT_TRUE(alloc_.flowlet_start(key, to_vec(p)));
    return key;
  }

  topo::ClosTopology clos_;
  Allocator alloc_;
};

TEST_F(AllocatorTest, DuplicateStartRejected) {
  start_flow(1, 0, 5);
  const auto p = clos_.host_path(clos_.host(0), clos_.host(5), 1);
  EXPECT_FALSE(alloc_.flowlet_start(1, to_vec(p)));
  EXPECT_EQ(alloc_.num_active_flowlets(), 1u);
}

TEST_F(AllocatorTest, UnknownEndRejected) {
  EXPECT_FALSE(alloc_.flowlet_end(99));
  start_flow(1, 0, 5);
  EXPECT_TRUE(alloc_.flowlet_end(1));
  EXPECT_FALSE(alloc_.flowlet_end(1));
  EXPECT_EQ(alloc_.num_active_flowlets(), 0u);
}

TEST_F(AllocatorTest, FirstIterationNotifiesNewFlows) {
  start_flow(1, 0, 5);
  start_flow(2, 1, 9);
  std::vector<RateUpdate> updates;
  alloc_.run_iteration(updates);
  ASSERT_EQ(updates.size(), 2u);
  for (const auto& u : updates) {
    EXPECT_GT(u.rate_bps, 0.0);
    EXPECT_DOUBLE_EQ(u.rate_bps, decode_rate(u.rate_code));
  }
}

TEST_F(AllocatorTest, SteadyStateSuppressesUpdates) {
  start_flow(1, 0, 5);
  start_flow(2, 1, 9);
  std::vector<RateUpdate> updates;
  for (int i = 0; i < 100; ++i) alloc_.run_iteration(updates);
  // After convergence, further iterations emit nothing.
  updates.clear();
  for (int i = 0; i < 50; ++i) alloc_.run_iteration(updates);
  EXPECT_TRUE(updates.empty());
  EXPECT_GT(alloc_.stats().updates_suppressed, 0u);
}

TEST_F(AllocatorTest, ChurnTriggersUpdatesForAffectedFlows) {
  // Two flows from the same source share the host uplink; when one ends,
  // the other's allocation roughly doubles and must be re-notified.
  start_flow(1, 0, 5);
  start_flow(2, 0, 9);
  std::vector<RateUpdate> updates;
  for (int i = 0; i < 200; ++i) alloc_.run_iteration(updates);
  const double before = alloc_.notified_rate(1);
  EXPECT_NEAR(before, 10e9 / 2, 10e9 / 2 * 0.1);

  alloc_.flowlet_end(2);
  updates.clear();
  for (int i = 0; i < 200; ++i) alloc_.run_iteration(updates);
  ASSERT_FALSE(updates.empty());
  const double after = alloc_.notified_rate(1);
  EXPECT_NEAR(after, 10e9 * (1 - 0.01), 10e9 * 0.05);
}

TEST_F(AllocatorTest, HeadroomReserved) {
  // With threshold 0.01 the allocator allocates at most 99% of capacity
  // (§6.4): a single flow on an uncontended path gets ~0.99 * 10G.
  start_flow(1, 0, 5);
  std::vector<RateUpdate> updates;
  for (int i = 0; i < 200; ++i) alloc_.run_iteration(updates);
  EXPECT_LE(alloc_.notified_rate(1), 0.99 * 10e9 * 1.001);
  EXPECT_GT(alloc_.notified_rate(1), 0.99 * 10e9 * 0.97);
}

TEST_F(AllocatorTest, FairShareAcrossSharedBottleneck) {
  // Four flows into the same destination host share its downlink.
  for (int i = 0; i < 4; ++i) start_flow(10 + i, i * 2, 15);
  std::vector<RateUpdate> updates;
  for (int i = 0; i < 300; ++i) alloc_.run_iteration(updates);
  for (int i = 0; i < 4; ++i) {
    EXPECT_NEAR(alloc_.notified_rate(10 + i), 0.99 * 10e9 / 4,
                10e9 / 4 * 0.05);
  }
}

TEST_F(AllocatorTest, AllocationsRespectEveryCapacity) {
  // Load up a busy pattern and verify no link is over-allocated after
  // normalization (F-NORM invariant at the allocator level).
  std::uint64_t key = 1;
  for (int s = 0; s < 8; ++s) {
    for (int d = 8; d < 16; d += 2) {
      start_flow(key++, s, d);
    }
  }
  std::vector<RateUpdate> updates;
  for (int i = 0; i < 100; ++i) alloc_.run_iteration(updates);
  for (std::uint64_t k = 1; k < key; ++k) {
    ASSERT_GT(alloc_.notified_rate(k), 0.0);
  }
  // F-NORM invariant: the solver's normalized allocation never exceeds
  // any (headroom-scaled) link capacity. Recompute per-link sums from
  // the per-flow allocated rates.
  const auto& problem = alloc_.problem();
  std::vector<double> per_link(problem.num_links(), 0.0);
  std::size_t active = 0;
  for (FlowIndex s = 0; s < problem.num_slots(); ++s) {
    if (!problem.flow(s).active()) continue;
    ++active;
    // allocated_rate by key: keys were dense 1..key-1 and none ended, so
    // slot order matches insertion order.
    const double r = alloc_.allocated_rate(s + 1);
    for (std::uint32_t l : problem.flow(s).route()) per_link[l] += r;
  }
  EXPECT_EQ(active, static_cast<std::size_t>(key - 1));
  for (std::size_t l = 0; l < per_link.size(); ++l) {
    EXPECT_LE(per_link[l], problem.capacity(l) * (1 + 1e-6));
  }
  // Aggregate check: total notified throughput cannot exceed the sum of
  // destination downlink capacities involved (4 dests x 10G) plus slack.
  double total = 0.0;
  for (std::uint64_t k = 1; k < key; ++k) total += alloc_.notified_rate(k);
  EXPECT_LE(total, 4 * 10e9 * 1.02);
}

TEST_F(AllocatorTest, StatsAreConsistent) {
  start_flow(1, 0, 5);
  std::vector<RateUpdate> updates;
  for (int i = 0; i < 10; ++i) alloc_.run_iteration(updates);
  alloc_.flowlet_end(1);
  const auto& st = alloc_.stats();
  EXPECT_EQ(st.flowlet_starts, 1u);
  EXPECT_EQ(st.flowlet_ends, 1u);
  EXPECT_EQ(st.iterations, 10u);
  EXPECT_EQ(st.updates_emitted, updates.size());
}

TEST(AllocatorRefreshTest, ConvergedFlowsRefreshOncePerWindow) {
  // Anti-entropy with refresh_rounds = N on a converged allocator: the
  // threshold filter suppresses every organic update, so each emission
  // is a refresh, each active key goes out exactly once in any N
  // consecutive rounds, and the free slots of ended keys never go out.
  constexpr int kN = 7;
  topo::ClosConfig cfg;
  cfg.racks = 4;
  cfg.servers_per_rack = 4;
  cfg.spines = 2;
  cfg.fabric_link_bps = 20e9;
  topo::ClosTopology clos(cfg);
  AllocatorConfig acfg;
  acfg.refresh_rounds = kN;
  Allocator alloc(clos.graph().capacities(), acfg);
  Rng rng(5);
  const int hosts = clos.num_hosts();
  for (std::uint64_t key = 1; key <= 30; ++key) {
    const auto src = static_cast<int>(rng.below(hosts));
    auto dst = static_cast<int>(rng.below(hosts - 1));
    if (dst >= src) ++dst;
    const auto p = clos.host_path(clos.host(src), clos.host(dst), key);
    ASSERT_TRUE(alloc.flowlet_start(key, to_vec(p)));
  }
  std::vector<RateUpdate> out;
  for (int i = 0; i < 300; ++i) alloc.run_iteration(out);
  const std::set<std::uint64_t> ended = {3, 11, 12, 27};
  for (const std::uint64_t key : ended) ASSERT_TRUE(alloc.flowlet_end(key));

  // One round; true when every emission was a refresh.
  const auto round = [&] {
    const AllocatorStats before = alloc.stats();
    out.clear();
    alloc.run_iteration(out);
    const AllocatorStats after = alloc.stats();
    const std::uint64_t emitted =
        after.updates_emitted - before.updates_emitted;
    EXPECT_EQ(emitted, out.size());
    EXPECT_EQ(emitted + after.updates_suppressed - before.updates_suppressed,
              alloc.num_active_flowlets());
    for (const RateUpdate& u : out) {
      EXPECT_FALSE(ended.contains(u.key)) << "ended key " << u.key;
    }
    return after.updates_refreshed - before.updates_refreshed == emitted;
  };
  int quiet = 0;  // consecutive refresh-only rounds
  for (int i = 0; i < 2000 && quiet < kN; ++i) quiet = round() ? quiet + 1 : 0;
  ASSERT_EQ(quiet, kN) << "allocator never re-converged";

  std::map<std::uint64_t, std::vector<int>> emitted_at;
  for (int r = 0; r < 3 * kN; ++r) {
    EXPECT_TRUE(round()) << "organic update in round " << r;
    for (const RateUpdate& u : out) emitted_at[u.key].push_back(r);
  }
  EXPECT_EQ(emitted_at.size(), alloc.num_active_flowlets());
  for (const auto& [key, rounds] : emitted_at) {
    ASSERT_EQ(rounds.size(), 3u) << "key " << key;
    EXPECT_EQ(rounds[1] - rounds[0], kN) << "key " << key;
    EXPECT_EQ(rounds[2] - rounds[1], kN) << "key " << key;
  }
}

TEST(AllocatorThresholdTest, HigherThresholdEmitsFewerUpdates) {
  // Figure 6's mechanism at unit scale: the same churn pattern produces
  // fewer updates at higher notification thresholds.
  topo::ClosConfig cfg;
  cfg.racks = 4;
  cfg.servers_per_rack = 4;
  cfg.spines = 2;
  cfg.fabric_link_bps = 20e9;
  topo::ClosTopology clos(cfg);

  auto run = [&](double threshold) {
    AllocatorConfig acfg;
    acfg.threshold = threshold;
    Allocator alloc(clos.graph().capacities(), acfg);
    std::vector<RateUpdate> updates;
    std::uint64_t key = 1;
    // Staircase churn on a shared bottleneck.
    for (int round = 0; round < 30; ++round) {
      const auto p =
          clos.host_path(clos.host(round % 8), clos.host(15), key);
      alloc.flowlet_start(key++, to_vec(p));
      for (int i = 0; i < 20; ++i) alloc.run_iteration(updates);
    }
    return alloc.stats().updates_emitted;
  };

  const auto low = run(0.01);
  const auto high = run(0.05);
  EXPECT_LT(high, low);
}

TEST(AllocatorConfigTest, MultipleItersPerRoundConvergeFaster) {
  topo::ClosConfig cfg;
  cfg.racks = 2;
  cfg.servers_per_rack = 2;
  cfg.spines = 1;
  cfg.fabric_link_bps = 20e9;
  topo::ClosTopology clos(cfg);
  const auto run_rounds_to_converge = [&](int iters_per_round) {
    AllocatorConfig acfg;
    acfg.iters_per_round = iters_per_round;
    Allocator alloc(clos.graph().capacities(), acfg);
    const auto p1 = clos.host_path(clos.host(0), clos.host(3), 1);
    const auto p2 = clos.host_path(clos.host(1), clos.host(3), 2);
    alloc.flowlet_start(1, to_vec(p1));
    alloc.flowlet_start(2, to_vec(p2));
    std::vector<RateUpdate> updates;
    const double fair = 0.99 * 5e9;
    for (int round = 1; round <= 500; ++round) {
      alloc.run_iteration(updates);
      if (std::abs(alloc.notified_rate(1) - fair) < fair * 0.01 &&
          std::abs(alloc.notified_rate(2) - fair) < fair * 0.01) {
        return round;
      }
    }
    return -1;
  };
  const int one = run_rounds_to_converge(1);
  const int four = run_rounds_to_converge(4);
  ASSERT_GT(one, 0);
  ASSERT_GT(four, 0);
  EXPECT_LE(four, one);
}

TEST(AllocatorConfigTest, UniformNormalizationOption) {
  topo::ClosConfig cfg;
  cfg.racks = 2;
  cfg.servers_per_rack = 2;
  cfg.spines = 1;
  cfg.fabric_link_bps = 20e9;
  topo::ClosTopology clos(cfg);
  AllocatorConfig acfg;
  acfg.norm = NormKind::kUniform;
  Allocator alloc(clos.graph().capacities(), acfg);
  const auto p1 = clos.host_path(clos.host(0), clos.host(3), 1);
  alloc.flowlet_start(1, to_vec(p1));
  std::vector<RateUpdate> updates;
  for (int i = 0; i < 200; ++i) alloc.run_iteration(updates);
  // Single flow: U-NORM also drives it to its bottleneck.
  EXPECT_NEAR(alloc.notified_rate(1), 0.99 * 10e9, 10e9 * 0.02);
}

TEST(AllocatorUtilityTest, WeightedFlowsGetWeightedShares) {
  topo::ClosConfig cfg;
  cfg.racks = 2;
  cfg.servers_per_rack = 2;
  cfg.spines = 1;
  cfg.fabric_link_bps = 20e9;
  topo::ClosTopology clos(cfg);
  AllocatorConfig acfg;
  acfg.threshold = 0.0;  // exact notifications
  acfg.reserve_headroom = false;
  Allocator alloc(clos.graph().capacities(), acfg);

  const auto p1 = clos.host_path(clos.host(0), clos.host(3), 1);
  const auto p2 = clos.host_path(clos.host(1), clos.host(3), 2);
  alloc.flowlet_start(1, to_vec(p1), Utility::log_utility(1e9));
  alloc.flowlet_start(2, to_vec(p2), Utility::log_utility(3e9));
  std::vector<RateUpdate> updates;
  for (int i = 0; i < 300; ++i) alloc.run_iteration(updates);
  // Shared bottleneck: dst host downlink (10G), split 1:3.
  EXPECT_NEAR(alloc.notified_rate(1), 2.5e9, 2.5e9 * 0.05);
  EXPECT_NEAR(alloc.notified_rate(2), 7.5e9, 7.5e9 * 0.05);
}

// ---------------------------------------------------------------------
// Backend equivalence (§5): an Allocator driving the multicore
// ParallelNed engine must produce the same rates as the sequential
// NedSolver backend, up to floating-point summation order -- including
// across flowlet churn, where slot recycling re-maps FlowBlock grid
// assignments.

struct BackendPair {
  topo::ClosTopology clos;
  Allocator seq;
  Allocator par;

  BackendPair(std::int32_t blocks, std::int32_t threads,
              AllocatorConfig acfg = {})
      : clos([] {
          topo::ClosConfig cfg;
          cfg.racks = 8;
          cfg.servers_per_rack = 2;
          cfg.spines = 2;
          return topo::ClosTopology(cfg);
        }()),
        seq(clos.graph().capacities(), acfg),
        par(clos.graph().capacities(), acfg,
            parallel_backend(topo::BlockPartition::make(clos, blocks),
                             [&] {
                               ParallelConfig pcfg;
                               pcfg.num_threads = threads;
                               return pcfg;
                             }())) {}

  void start_both(std::uint64_t key, int src, int dst) {
    const auto p = clos.host_path(clos.host(src), clos.host(dst), key);
    ASSERT_TRUE(seq.flowlet_start(key, to_vec(p)));
    ASSERT_TRUE(par.flowlet_start(key, to_vec(p)));
  }
  void end_both(std::uint64_t key) {
    ASSERT_TRUE(seq.flowlet_end(key));
    ASSERT_TRUE(par.flowlet_end(key));
  }
};

TEST(AllocatorBackendTest, ParallelMatchesSequentialSteadyState) {
  BackendPair pair(4, 4);
  Rng rng(17);
  const int hosts = pair.clos.num_hosts();
  std::vector<std::uint64_t> keys;
  for (std::uint64_t key = 1; key <= 48; ++key) {
    const auto src = static_cast<int>(rng.below(hosts));
    auto dst = static_cast<int>(rng.below(hosts - 1));
    if (dst >= src) ++dst;
    pair.start_both(key, src, dst);
    keys.push_back(key);
  }
  std::vector<RateUpdate> seq_out;
  std::vector<RateUpdate> par_out;
  for (int round = 0; round < 60; ++round) {
    seq_out.clear();
    par_out.clear();
    pair.seq.run_iteration(seq_out);
    pair.par.run_iteration(par_out);
    for (const std::uint64_t key : keys) {
      const double want = pair.seq.allocated_rate(key);
      ASSERT_NEAR(pair.par.allocated_rate(key), want,
                  std::max(1.0, want) * 1e-9)
          << "round " << round << " key " << key;
    }
  }
  // Quantized notifications agree exactly after convergence.
  for (const std::uint64_t key : keys) {
    EXPECT_EQ(encode_rate(pair.par.notified_rate(key)),
              encode_rate(pair.seq.notified_rate(key)))
        << "key " << key;
  }
}

TEST(AllocatorBackendTest, MultiIterationRoundsMatch) {
  // iters_per_round > 1: the parallel backend skips the piggybacked
  // F-NORM pass on all but the final iteration of the round, which
  // must leave it exactly on the sequential backend's once-per-round
  // normalization.
  AllocatorConfig acfg;
  acfg.iters_per_round = 3;
  BackendPair pair(2, 2, acfg);
  Rng rng(8);
  const int hosts = pair.clos.num_hosts();
  std::vector<std::uint64_t> keys;
  for (std::uint64_t key = 1; key <= 20; ++key) {
    const auto src = static_cast<int>(rng.below(hosts));
    auto dst = static_cast<int>(rng.below(hosts - 1));
    if (dst >= src) ++dst;
    pair.start_both(key, src, dst);
    keys.push_back(key);
  }
  std::vector<RateUpdate> sink;
  for (int round = 0; round < 25; ++round) {
    sink.clear();
    pair.seq.run_iteration(sink);
    sink.clear();
    pair.par.run_iteration(sink);
    for (const std::uint64_t key : keys) {
      const double want = pair.seq.allocated_rate(key);
      ASSERT_NEAR(pair.par.allocated_rate(key), want,
                  std::max(1.0, want) * 1e-9)
          << "round " << round << " key " << key;
    }
  }
}

TEST(AllocatorBackendTest, RuntimeCapacityChangesMatchUnderParallel) {
  // §7 closed loop under the multicore backend: set_link_capacity at
  // runtime must keep sequential and parallel allocations equivalent --
  // the SoA demand-bound refresh passes over every slot whose route
  // holds the link. The parallel engine reads capacities straight from
  // the shared problem but keeps band-local copies of the demand
  // floors, which it re-reads when NumProblem::capacity_version()
  // moves; a stale copy fails here.
  AllocatorConfig acfg;
  acfg.threshold = 0.0;  // every change notified: strictest comparison
  BackendPair pair(4, 4, acfg);
  Rng rng(41);
  const int hosts = pair.clos.num_hosts();
  std::vector<std::uint64_t> keys;
  for (std::uint64_t key = 1; key <= 40; ++key) {
    const auto src = static_cast<int>(rng.below(hosts));
    auto dst = static_cast<int>(rng.below(hosts - 1));
    if (dst >= src) ++dst;
    pair.start_both(key, src, dst);
    keys.push_back(key);
  }
  const std::size_t links = pair.seq.problem().num_links();
  std::vector<RateUpdate> sink;
  for (int round = 0; round < 80; ++round) {
    if (round % 5 == 2) {
      // Shrink or restore a random link; both allocators see the same
      // pre-headroom capacity.
      const auto link = rng.below(links);
      const double cap = rng.uniform() < 0.5 ? 4e9 : 10e9;
      pair.seq.set_link_capacity(link, cap);
      pair.par.set_link_capacity(link, cap);
    }
    sink.clear();
    pair.seq.run_iteration(sink);
    sink.clear();
    pair.par.run_iteration(sink);
    for (const std::uint64_t key : keys) {
      const double want = pair.seq.allocated_rate(key);
      ASSERT_NEAR(pair.par.allocated_rate(key), want,
                  std::max(1.0, want) * 1e-9)
          << "round " << round << " key " << key;
    }
  }
}

TEST(AllocatorBackendTest, CapacityChangesAndChurnTogetherUnderParallel) {
  // The combination the service actually produces: flowlet churn
  // (slot recycling re-mapping grid cells) interleaved with runtime
  // capacity changes, under the parallel backend.
  AllocatorConfig acfg;
  acfg.threshold = 0.0;
  BackendPair pair(4, 2, acfg);
  Rng rng(67);
  const int hosts = pair.clos.num_hosts();
  const std::size_t links = pair.seq.problem().num_links();
  std::vector<std::uint64_t> live;
  std::uint64_t next_key = 1;
  std::vector<RateUpdate> sink;
  for (int round = 0; round < 120; ++round) {
    for (int i = 0; i < 3; ++i) {
      if (!live.empty() && rng.uniform() < 0.45) {
        const auto pick = rng.below(live.size());
        pair.end_both(live[pick]);
        live[pick] = live.back();
        live.pop_back();
      } else {
        const auto src = static_cast<int>(rng.below(hosts));
        auto dst = static_cast<int>(rng.below(hosts - 1));
        if (dst >= src) ++dst;
        pair.start_both(next_key, src, dst);
        live.push_back(next_key++);
      }
    }
    if (round % 7 == 3) {
      const auto link = rng.below(links);
      const double cap = rng.uniform(3e9, 12e9);
      pair.seq.set_link_capacity(link, cap);
      pair.par.set_link_capacity(link, cap);
    }
    sink.clear();
    pair.seq.run_iteration(sink);
    sink.clear();
    pair.par.run_iteration(sink);
    for (const std::uint64_t key : live) {
      const double want = pair.seq.allocated_rate(key);
      ASSERT_NEAR(pair.par.allocated_rate(key), want,
                  std::max(1.0, want) * 1e-9)
          << "round " << round << " key " << key;
    }
  }
  EXPECT_EQ(pair.par.stats().flowlet_ends, pair.seq.stats().flowlet_ends);
}

TEST(AllocatorBackendTest, ParallelMatchesSequentialAcrossChurn) {
  AllocatorConfig acfg;
  acfg.threshold = 0.0;  // every change notified: strictest comparison
  BackendPair pair(4, 2, acfg);
  Rng rng(23);
  const int hosts = pair.clos.num_hosts();
  std::vector<std::uint64_t> live;
  std::uint64_t next_key = 1;
  std::vector<RateUpdate> sink;
  for (int round = 0; round < 120; ++round) {
    // A few starts and ends per round keeps the free list busy: ended
    // slots are recycled into new FlowBlock grid cells.
    for (int i = 0; i < 3; ++i) {
      if (!live.empty() && rng.uniform() < 0.45) {
        const auto pick = rng.below(live.size());
        pair.end_both(live[pick]);
        live[pick] = live.back();
        live.pop_back();
      } else {
        const auto src = static_cast<int>(rng.below(hosts));
        auto dst = static_cast<int>(rng.below(hosts - 1));
        if (dst >= src) ++dst;
        pair.start_both(next_key, src, dst);
        live.push_back(next_key++);
      }
    }
    sink.clear();
    pair.seq.run_iteration(sink);
    sink.clear();
    pair.par.run_iteration(sink);
    for (const std::uint64_t key : live) {
      const double want = pair.seq.allocated_rate(key);
      ASSERT_NEAR(pair.par.allocated_rate(key), want,
                  std::max(1.0, want) * 1e-9)
          << "round " << round << " key " << key;
    }
  }
  EXPECT_EQ(pair.par.stats().flowlet_starts,
            pair.seq.stats().flowlet_starts);
  EXPECT_EQ(pair.par.stats().flowlet_ends, pair.seq.stats().flowlet_ends);
}

// ---------------------------------------------------------------------
// The update stream (run_iteration's `out`): the parallel backend sweeps
// one slot range per worker thread and the allocator appends the ranges
// in order, which must give exactly the stream of one sweep in slot
// order -- whatever the thread count.

// One allocator's rounds under seeded churn: every round's updates.
struct StreamRun {
  std::vector<std::vector<RateUpdate>> rounds;
  AllocatorStats stats;
};

// 301 flows (7 * 43 slots: no thread count here splits them evenly),
// then 9 ends and 9 starts per round; the free list recycles the ended
// slots, so the slot count stays 301. `threads` 0 = sequential backend.
StreamRun run_stream(int threads, AllocatorConfig acfg, int rounds) {
  topo::ClosConfig ccfg;
  ccfg.racks = 8;
  ccfg.servers_per_rack = 2;
  ccfg.spines = 2;
  const topo::ClosTopology clos(ccfg);
  ParallelConfig pcfg;
  pcfg.num_threads = threads;
  Allocator alloc =
      threads == 0
          ? Allocator(clos.graph().capacities(), acfg)
          : Allocator(clos.graph().capacities(), acfg,
                      parallel_backend(topo::BlockPartition::make(clos, 4),
                                       pcfg));
  Rng rng(91);
  const int hosts = clos.num_hosts();
  std::vector<std::uint64_t> live;
  std::uint64_t next_key = 1;
  const auto start = [&] {
    const auto src = static_cast<int>(rng.below(hosts));
    auto dst = static_cast<int>(rng.below(hosts - 1));
    if (dst >= src) ++dst;
    const auto p = clos.host_path(clos.host(src), clos.host(dst), next_key);
    EXPECT_TRUE(alloc.flowlet_start(next_key, to_vec(p)));
    live.push_back(next_key++);
  };
  for (int i = 0; i < 301; ++i) start();
  StreamRun run;
  for (int round = 0; round < rounds; ++round) {
    if (round > 0) {
      for (int i = 0; i < 9; ++i) {
        const auto pick = rng.below(live.size());
        EXPECT_TRUE(alloc.flowlet_end(live[pick]));
        live[pick] = live.back();
        live.pop_back();
      }
      for (int i = 0; i < 9; ++i) start();
    }
    EXPECT_EQ(alloc.problem().num_slots(), 301u);
    auto& out = run.rounds.emplace_back();
    alloc.run_iteration(out);
    const Allocator::RoundStamps& st = alloc.last_round_stamps();
    EXPECT_LE(st.solve_start_ns, st.solve_end_ns) << "round " << round;
    EXPECT_LE(st.solve_end_ns, st.emit_end_ns) << "round " << round;
  }
  run.stats = alloc.stats();
  return run;
}

bool same_update(const RateUpdate& a, const RateUpdate& b) {
  return a.key == b.key && a.rate_code == b.rate_code &&
         a.rate_bps == b.rate_bps;
}

TEST(AllocatorStreamTest, ParallelStreamsAreIdenticalAcrossThreadCounts) {
  // Anti-entropy every 7 rounds: this round's refresh turns form the
  // progression (7 - round % 7) % 7 + 7k, which crosses every range
  // boundary of a 2-, 3- or 4-way split of 301 slots at a different
  // offset each round.
  AllocatorConfig acfg;
  acfg.refresh_rounds = 7;
  const StreamRun one = run_stream(1, acfg, 40);
  ASSERT_GT(one.stats.updates_refreshed, 0u);
  for (const int threads : {2, 3, 4}) {
    const StreamRun other = run_stream(threads, acfg, 40);
    for (std::size_t r = 0; r < one.rounds.size(); ++r) {
      const auto& want = one.rounds[r];
      const auto& got = other.rounds[r];
      ASSERT_EQ(got.size(), want.size())
          << threads << " threads, round " << r;
      for (std::size_t i = 0; i < want.size(); ++i) {
        ASSERT_TRUE(same_update(got[i], want[i]))
            << threads << " threads, round " << r << ", update " << i
            << ": key " << got[i].key << " vs " << want[i].key;
      }
    }
    EXPECT_EQ(other.stats.updates_emitted, one.stats.updates_emitted);
    EXPECT_EQ(other.stats.updates_refreshed, one.stats.updates_refreshed)
        << threads << " threads";
    EXPECT_EQ(other.stats.updates_suppressed, one.stats.updates_suppressed);
  }
}

TEST(AllocatorStreamTest, RefreshTurnsMatchTheSequentialSweep) {
  // Threshold 1/2: after the first rounds, rate moves this small are all
  // suppressed, so (bar the churned flows) what goes out is exactly the
  // refresh turns. The parallel backend's range sweeps must pick the
  // same turns as the sequential backend's one sweep.
  AllocatorConfig acfg;
  acfg.threshold = 0.5;
  acfg.refresh_rounds = 7;
  const StreamRun seq = run_stream(0, acfg, 30);
  const StreamRun par = run_stream(3, acfg, 30);
  ASSERT_GT(seq.stats.updates_refreshed, 0u);
  EXPECT_EQ(par.stats.updates_refreshed, seq.stats.updates_refreshed);
  for (std::size_t r = 10; r < seq.rounds.size(); ++r) {
    std::vector<std::uint64_t> want, got;
    for (const RateUpdate& u : seq.rounds[r]) want.push_back(u.key);
    for (const RateUpdate& u : par.rounds[r]) got.push_back(u.key);
    EXPECT_EQ(got, want) << "round " << r;
  }
}

TEST(AllocatorStreamTest, ZeroThresholdKeyOrderMatchesSequential) {
  // Threshold 0 notifies every active flow every round (a quantized rate
  // never equals its raw value), in slot order on both backends; the
  // churn recycles slots identically, so the key orders agree.
  AllocatorConfig acfg;
  acfg.threshold = 0.0;
  const StreamRun seq = run_stream(0, acfg, 20);
  const StreamRun par = run_stream(2, acfg, 20);
  for (std::size_t r = 0; r < seq.rounds.size(); ++r) {
    ASSERT_EQ(seq.rounds[r].size(), 301u) << "round " << r;
    std::vector<std::uint64_t> want, got;
    for (const RateUpdate& u : seq.rounds[r]) want.push_back(u.key);
    for (const RateUpdate& u : par.rounds[r]) got.push_back(u.key);
    EXPECT_EQ(got, want) << "round " << r;
  }
}

}  // namespace
}  // namespace ft::core
