// Tests for the multicore FlowBlock/LinkBlock engine (§5): bit-level
// behavioural equivalence with the sequential NED solver (up to fp
// summation order), F-NORM piggybacking, flow churn bookkeeping, unequal
// LinkBlock sizes, barrier placement, and determinism across thread
// counts.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.h"
#include "core/ned.h"
#include "core/normalizer.h"
#include "core/parallel.h"
#include "topo/clos.h"
#include "topo/partition.h"

namespace ft::core {
namespace {

struct Instance {
  topo::ClosTopology clos;
  topo::BlockPartition part;
  std::vector<double> caps;

  Instance(std::int32_t racks, std::int32_t servers, std::int32_t spines,
           std::int32_t blocks)
      : clos([&] {
          topo::ClosConfig cfg;
          cfg.racks = racks;
          cfg.servers_per_rack = servers;
          cfg.spines = spines;
          return topo::ClosTopology(cfg);
        }()),
        part(topo::BlockPartition::make(clos, blocks)),
        caps(clos.graph().capacities()) {}
};

struct FlowSpec {
  std::vector<LinkId> route;
  std::int32_t src_block;
  std::int32_t dst_block;
};

std::vector<FlowSpec> random_flows(const Instance& inst, std::size_t count,
                                   std::uint64_t seed) {
  Rng rng(seed);
  std::vector<FlowSpec> specs;
  const auto hosts = static_cast<std::uint64_t>(inst.clos.num_hosts());
  for (std::size_t i = 0; i < count; ++i) {
    const auto s = static_cast<std::int32_t>(rng.below(hosts));
    auto d = static_cast<std::int32_t>(rng.below(hosts - 1));
    if (d >= s) ++d;
    const auto path =
        inst.clos.host_path(inst.clos.host(s), inst.clos.host(d),
                            rng.next());
    FlowSpec spec;
    spec.route = {path.begin(), path.end()};
    spec.src_block = inst.part.block_of_host(inst.clos, inst.clos.host(s));
    spec.dst_block = inst.part.block_of_host(inst.clos, inst.clos.host(d));
    specs.push_back(std::move(spec));
  }
  return specs;
}

class ParallelEquivalenceP
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ParallelEquivalenceP, MatchesSequentialNed) {
  const auto [blocks, threads] = GetParam();
  Instance inst(8, 2, 2, blocks);
  const auto specs = random_flows(inst, 60, 42);

  // Sequential reference.
  NumProblem seq_p(inst.caps);
  NedSolver seq(seq_p, 1.0);
  for (const auto& s : specs) {
    seq_p.add_flow(s.route, Utility::log_utility());
  }

  // Parallel engine.
  NumProblem par_p(inst.caps);
  ParallelConfig cfg;
  cfg.num_blocks = blocks;
  cfg.num_threads = threads;
  cfg.gamma = 1.0;
  ParallelNed par(par_p, inst.part, cfg);
  for (const auto& s : specs) {
    const FlowIndex idx = par_p.add_flow(s.route, Utility::log_utility());
    par.assign_flow(idx, s.src_block, s.dst_block);
  }

  for (int it = 0; it < 50; ++it) {
    seq.iterate();
    par.iterate();
    for (std::size_t s = 0; s < specs.size(); ++s) {
      ASSERT_NEAR(par.rates()[s], seq.rates()[s],
                  std::max(1.0, seq.rates()[s]) * 1e-9)
          << "iter " << it << " flow " << s;
    }
  }
  // Prices agree too.
  for (std::size_t l = 0; l < inst.caps.size(); ++l) {
    EXPECT_NEAR(par.prices()[l], seq.prices()[l],
                std::max(1e-12, seq.prices()[l]) * 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    BlocksAndThreads, ParallelEquivalenceP,
    ::testing::Values(std::make_tuple(1, 1), std::make_tuple(2, 1),
                      std::make_tuple(2, 2), std::make_tuple(2, 4),
                      std::make_tuple(4, 1), std::make_tuple(4, 4),
                      std::make_tuple(4, 16), std::make_tuple(8, 4)));

TEST(ParallelNormTest, FNormMatchesSequential) {
  Instance inst(4, 2, 2, 4);
  const auto specs = random_flows(inst, 40, 7);

  NumProblem par_p(inst.caps);
  ParallelConfig cfg;
  cfg.num_blocks = 4;
  cfg.num_threads = 4;
  ParallelNed par(par_p, inst.part, cfg);
  for (const auto& s : specs) {
    par.assign_flow(par_p.add_flow(s.route, {}), s.src_block,
                    s.dst_block);
  }
  for (int it = 0; it < 30; ++it) par.iterate();

  // Reference normalization of the same rates.
  std::vector<double> expect(par_p.num_slots());
  f_norm(par_p, par.rates(), expect);
  for (std::size_t s = 0; s < expect.size(); ++s) {
    EXPECT_NEAR(par.norm_rates()[s], expect[s],
                std::max(1.0, expect[s]) * 1e-9);
  }
}

TEST(ParallelChurnTest, AssignUnassignKeepsEquivalence) {
  Instance inst(4, 2, 2, 2);
  auto specs = random_flows(inst, 30, 99);

  NumProblem seq_p(inst.caps);
  NedSolver seq(seq_p, 1.0);
  NumProblem par_p(inst.caps);
  ParallelConfig cfg;
  cfg.num_blocks = 2;
  cfg.num_threads = 2;
  ParallelNed par(par_p, inst.part, cfg);

  Rng rng(5);
  std::vector<FlowIndex> live_seq, live_par;
  std::size_t next = 0;
  for (int round = 0; round < 60; ++round) {
    const bool add =
        live_seq.empty() || (next < specs.size() && rng.uniform() < 0.6);
    if (add && next < specs.size()) {
      const auto& s = specs[next++];
      live_seq.push_back(seq_p.add_flow(s.route, {}));
      const FlowIndex idx = par_p.add_flow(s.route, {});
      par.assign_flow(idx, s.src_block, s.dst_block);
      live_par.push_back(idx);
    } else if (!live_seq.empty()) {
      const auto pick = rng.below(live_seq.size());
      seq_p.remove_flow(live_seq[pick]);
      par.unassign_flow(live_par[pick]);
      par_p.remove_flow(live_par[pick]);
      live_seq.erase(live_seq.begin() + static_cast<std::ptrdiff_t>(pick));
      live_par.erase(live_par.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    for (int i = 0; i < 3; ++i) {
      seq.iterate();
      par.iterate();
    }
    for (std::size_t i = 0; i < live_seq.size(); ++i) {
      ASSERT_NEAR(par.rates()[live_par[i]], seq.rates()[live_seq[i]],
                  std::max(1.0, seq.rates()[live_seq[i]]) * 1e-9)
          << "round " << round;
    }
  }
}

TEST(ParallelChurnTest, SlotRecyclingUnderHeavyInterleavedChurn) {
  // Regression for the free-list reuse path the allocator service
  // exercises: bursts of unassign/assign between iterations, mass
  // removals (a disconnecting endpoint ends everything it owns at
  // once), and recycled slots landing in *different* grid cells than
  // their previous flow. The engine must keep matching the sequential
  // solver and the reference F-NORM throughout.
  Instance inst(8, 2, 2, 4);
  const auto specs = random_flows(inst, 200, 4242);

  NumProblem seq_p(inst.caps);
  NedSolver seq(seq_p, 1.0);
  NumProblem par_p(inst.caps);
  ParallelConfig cfg;
  cfg.num_blocks = 4;
  cfg.num_threads = 4;
  ParallelNed par(par_p, inst.part, cfg);

  Rng rng(31337);
  // live[i] = {seq slot, par slot, spec index}.
  struct Live {
    FlowIndex seq_slot;
    FlowIndex par_slot;
  };
  std::vector<Live> live;
  const auto add_one = [&] {
    const auto& s = specs[rng.below(specs.size())];
    const FlowIndex si = seq_p.add_flow(s.route, {});
    const FlowIndex pi = par_p.add_flow(s.route, {});
    ASSERT_EQ(si, pi);  // identical churn order => identical free lists
    par.assign_flow(pi, s.src_block, s.dst_block);
    live.push_back({si, pi});
  };
  const auto remove_at = [&](std::size_t pick) {
    par.unassign_flow(live[pick].par_slot);
    par_p.remove_flow(live[pick].par_slot);
    seq_p.remove_flow(live[pick].seq_slot);
    live[pick] = live.back();
    live.pop_back();
  };

  for (int i = 0; i < 40; ++i) add_one();
  for (int round = 0; round < 80; ++round) {
    // Burst of interleaved churn between iterations: several slots are
    // freed and immediately recycled by the next add.
    const int churn = 1 + static_cast<int>(rng.below(8));
    for (int c = 0; c < churn; ++c) {
      if (!live.empty() && rng.uniform() < 0.5) {
        remove_at(rng.below(live.size()));
      } else {
        add_one();
      }
    }
    if (round == 40) {
      // Mass removal: everything an endpoint owned ends at once.
      while (live.size() > 5) remove_at(live.size() - 1);
    }
    seq.iterate();
    par.iterate();
    for (const Live& f : live) {
      ASSERT_NEAR(par.rates()[f.par_slot], seq.rates()[f.seq_slot],
                  std::max(1.0, seq.rates()[f.seq_slot]) * 1e-9)
          << "round " << round << " slot " << f.par_slot;
    }
    // Piggybacked F-NORM stays consistent with the reference
    // normalization of the same rates under recycling too.
    std::vector<double> expect(par_p.num_slots());
    f_norm(par_p, par.rates(), expect);
    for (const Live& f : live) {
      ASSERT_NEAR(par.norm_rates()[f.par_slot], expect[f.par_slot],
                  std::max(1.0, expect[f.par_slot]) * 1e-9)
          << "round " << round << " slot " << f.par_slot;
    }
  }
}

TEST(ParallelChurnTest, SlotRecycledOntoAnotherBlockBeforeOneIterate) {
  // Churn lands at the next iterate(): here one slot leaves a FlowBlock
  // in one thread's band and, before the engine iterates, the free list
  // hands it to a flow of a FlowBlock in the other thread's band. The
  // removal reads the slot's position in the old block and the add
  // writes its position in the new one.
  Instance inst(8, 2, 2, 2);
  const auto specs = random_flows(inst, 40, 515);
  NumProblem seq_p(inst.caps);
  NedSolver seq(seq_p, 1.0);
  NumProblem par_p(inst.caps);
  ParallelConfig cfg;
  cfg.num_blocks = 2;
  cfg.num_threads = 2;  // one grid row (src block) per thread
  ParallelNed par(par_p, inst.part, cfg);
  for (const auto& s : specs) {
    seq_p.add_flow(s.route, {});
    par.assign_flow(par_p.add_flow(s.route, {}), s.src_block, s.dst_block);
  }
  for (int it = 0; it < 5; ++it) {
    seq.iterate();
    par.iterate();
  }
  // A flow from block 0 ends; a block-1 flow reuses its slot.
  std::size_t gone = 0;
  while (specs[gone].src_block != 0) ++gone;
  std::size_t next = 0;
  while (specs[next].src_block != 1) ++next;
  const auto slot = static_cast<FlowIndex>(gone);
  par.unassign_flow(slot);
  par_p.remove_flow(slot);
  seq_p.remove_flow(slot);
  ASSERT_EQ(par_p.add_flow(specs[next].route, {}), slot);
  ASSERT_EQ(seq_p.add_flow(specs[next].route, {}), slot);
  par.assign_flow(slot, specs[next].src_block, specs[next].dst_block);
  for (int it = 0; it < 20; ++it) {
    seq.iterate();
    par.iterate();
    for (std::size_t s = 0; s < specs.size(); ++s) {
      ASSERT_NEAR(par.rates()[s], seq.rates()[s],
                  std::max(1.0, seq.rates()[s]) * 1e-9)
          << "iter " << it << " slot " << s;
    }
  }
}

TEST(ParallelChurnTest, StartThenEndBeforeIterateCancels) {
  // A flow that starts and ends between two iterations never reaches a
  // band: the pair cancels in the pending lists, however often it
  // repeats. Engine `a` sees 1000 such pairs, engine `b` none; both must
  // stay bit-identical.
  Instance inst(8, 2, 2, 4);
  const auto specs = random_flows(inst, 60, 616);
  ParallelConfig cfg;
  cfg.num_blocks = 4;
  cfg.num_threads = 3;
  NumProblem pa(inst.caps);
  NumProblem pb(inst.caps);
  ParallelNed a(pa, inst.part, cfg);
  ParallelNed b(pb, inst.part, cfg);
  for (const auto& s : specs) {
    a.assign_flow(pa.add_flow(s.route, {}), s.src_block, s.dst_block);
    b.assign_flow(pb.add_flow(s.route, {}), s.src_block, s.dst_block);
  }
  a.iterate();
  b.iterate();
  const auto pairs = [&](FlowIndex want_slot) {
    for (int i = 0; i < 1000; ++i) {
      const auto& s = specs[static_cast<std::size_t>(i) % specs.size()];
      const FlowIndex slot = pa.add_flow(s.route, {});
      ASSERT_EQ(slot, want_slot);
      a.assign_flow(slot, s.src_block, s.dst_block);
      a.unassign_flow(slot);
      pa.remove_flow(slot);
    }
  };
  // On a fresh slot with nothing else pending: rates() gathers from the
  // bands, which it only does with no churn pending.
  pairs(static_cast<FlowIndex>(specs.size()));
  for (std::size_t s = 0; s < specs.size(); ++s) {
    ASSERT_EQ(a.rates()[s], b.rates()[s]) << "slot " << s;
  }
  // On a slot whose flow just ended, so its removal stays pending.
  for (auto [p, e] : {std::pair<NumProblem*, ParallelNed*>{&pa, &a},
                      std::pair<NumProblem*, ParallelNed*>{&pb, &b}}) {
    e->unassign_flow(7);
    p->remove_flow(7);
  }
  pairs(7);
  for (int it = 0; it < 10; ++it) {
    a.iterate();
    b.iterate();
  }
  for (std::size_t s = 0; s < specs.size(); ++s) {
    EXPECT_EQ(a.rates()[s], b.rates()[s]) << "slot " << s;
    EXPECT_EQ(a.norm_rates()[s], b.norm_rates()[s]) << "slot " << s;
  }
}

TEST(ParallelDeterminismTest, SameResultsAcrossThreadCounts) {
  Instance inst(8, 2, 2, 4);
  const auto specs = random_flows(inst, 80, 1234);

  // Rates and F-NORM rates after a run with churn (slot recycling moves
  // flows between FlowBlocks and reorders their band-local arrays) and
  // one runtime capacity change (the band-local floor refresh).
  auto run = [&](std::int32_t threads) {
    NumProblem p(inst.caps);
    ParallelConfig cfg;
    cfg.num_blocks = 4;
    cfg.num_threads = threads;
    ParallelNed par(p, inst.part, cfg);
    Rng rng(77);
    std::vector<FlowIndex> live;
    const auto add = [&](const FlowSpec& s) {
      const FlowIndex idx = p.add_flow(s.route, {});
      par.assign_flow(idx, s.src_block, s.dst_block);
      live.push_back(idx);
    };
    for (std::size_t i = 0; i < 50; ++i) add(specs[i]);
    for (int i = 0; i < 40; ++i) {
      if (i % 4 == 1) {
        const auto pick = rng.below(live.size());
        par.unassign_flow(live[pick]);
        p.remove_flow(live[pick]);
        live[pick] = live.back();
        live.pop_back();
        add(specs[rng.below(specs.size())]);
      }
      if (i == 20) {
        // The first live flow's host uplink drops to 100M: the demand
        // floors of the flows on it rise.
        p.set_capacity(p.flow(live.front()).route()[0], 1e8);
      }
      par.iterate();
    }
    std::vector<double> out(par.rates().begin(), par.rates().end());
    out.insert(out.end(), par.norm_rates().begin(), par.norm_rates().end());
    return out;
  };

  const auto r1 = run(1);
  const auto r4 = run(4);
  const auto r16 = run(16);
  ASSERT_EQ(r1.size(), r4.size());
  ASSERT_EQ(r1.size(), r16.size());
  for (std::size_t i = 0; i < r1.size(); ++i) {
    // Identical arithmetic regardless of thread count (worker order is
    // fixed): bitwise equality expected.
    EXPECT_EQ(r1[i], r4[i]) << "entry " << i;
    EXPECT_EQ(r1[i], r16[i]) << "entry " << i;
  }
}

TEST(ParallelBarrierTest, BarriersOnlyWhereThreadBandsMeet) {
  // Barriers an iteration can cross for (grid side n, threads): start,
  // churn (between removals and adds), gather and end, plus a phase
  // barrier before each aggregation step -- and its reverse
  // distribution step -- with a transfer between two threads' bands.
  // With whole-row bands upward transfers never cross, so only the
  // column transfers between row bands do. (Barriering every step
  // costs 2*log2(n) + 6.)
  struct Row {
    std::int32_t n;
    std::int32_t threads;
    std::int32_t barriers;
  };
  for (const Row& row : {Row{8, 2, 6}, Row{8, 1, 4}, Row{8, 8, 10},
                         Row{4, 16, 8}, Row{2, 2, 6}}) {
    Instance inst(8, 1, 1, row.n);
    NumProblem p(inst.caps);
    ParallelConfig cfg;
    cfg.num_blocks = row.n;
    cfg.num_threads = row.threads;
    ParallelNed par(p, inst.part, cfg);
    EXPECT_EQ(par.barriers_per_iter(), row.barriers)
        << "n=" << row.n << " threads=" << row.threads;
  }
}

// Rack counts the block count does not divide: BlockPartition gives the
// last blocks fewer racks (6 racks / 4 blocks -> 2,2,2,0 racks; 7 -> 2,2,
// 2,1), so workers in different rows place their downward LinkBlock at
// different local offsets and the column transfers between them must
// translate. Checked against the sequential solver under churn and a
// capacity change, at several thread counts.
class ParallelUnequalBlocksP
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ParallelUnequalBlocksP, MatchesSequentialNedWithChurn) {
  const auto [racks, threads] = GetParam();
  Instance inst(racks, 2, 2, 4);
  const auto specs = random_flows(inst, 120, 606);

  NumProblem seq_p(inst.caps);
  NedSolver seq(seq_p, 1.0);
  NumProblem par_p(inst.caps);
  ParallelConfig cfg;
  cfg.num_blocks = 4;
  cfg.num_threads = threads;
  ParallelNed par(par_p, inst.part, cfg);

  Rng rng(8);
  struct Live {
    FlowIndex seq_slot;
    FlowIndex par_slot;
  };
  std::vector<Live> live;
  const auto add_one = [&] {
    const auto& s = specs[rng.below(specs.size())];
    const FlowIndex si = seq_p.add_flow(s.route, {});
    const FlowIndex pi = par_p.add_flow(s.route, {});
    par.assign_flow(pi, s.src_block, s.dst_block);
    live.push_back({si, pi});
  };
  for (int i = 0; i < 60; ++i) add_one();
  for (int round = 0; round < 60; ++round) {
    for (int c = 0; c < 4; ++c) {
      if (!live.empty() && rng.uniform() < 0.5) {
        const auto pick = rng.below(live.size());
        par.unassign_flow(live[pick].par_slot);
        par_p.remove_flow(live[pick].par_slot);
        seq_p.remove_flow(live[pick].seq_slot);
        live[pick] = live.back();
        live.pop_back();
      } else {
        add_one();
      }
    }
    if (round == 30) {
      // A host uplink drops to 100M: the demand floor of every flow on
      // it rises far above its path price, so a stale band-local floor
      // shows at once.
      const auto link = seq_p.flow(live.front().seq_slot).route()[0];
      seq_p.set_capacity(link, 1e8);
      par_p.set_capacity(link, 1e8);
    }
    seq.iterate();
    par.iterate();
    std::vector<double> expect(par_p.num_slots());
    f_norm(par_p, par.rates(), expect);
    for (const Live& f : live) {
      ASSERT_NEAR(par.rates()[f.par_slot], seq.rates()[f.seq_slot],
                  std::max(1.0, seq.rates()[f.seq_slot]) * 1e-9)
          << "round " << round << " slot " << f.par_slot;
      ASSERT_NEAR(par.norm_rates()[f.par_slot], expect[f.par_slot],
                  std::max(1.0, expect[f.par_slot]) * 1e-9)
          << "round " << round << " slot " << f.par_slot;
    }
  }
  for (std::size_t l = 0; l < inst.caps.size(); ++l) {
    EXPECT_NEAR(par.prices()[l], seq.prices()[l],
                std::max(1e-12, seq.prices()[l]) * 1e-9)
        << "link " << l;
  }
}

INSTANTIATE_TEST_SUITE_P(
    RacksAndThreads, ParallelUnequalBlocksP,
    ::testing::Combine(::testing::Values(6, 7), ::testing::Values(1, 2, 4)));

TEST(ParallelUtilityTest, AlphaFairAndFixedDemandMatchSequential) {
  // The parallel engine must agree with the sequential solver for the
  // whole utility family, including fixed-demand external flows.
  Instance inst(4, 2, 2, 2);
  Rng rng(21);
  NumProblem seq_p(inst.caps);
  NedSolver seq(seq_p, 1.0);
  NumProblem par_p(inst.caps);
  ParallelConfig cfg;
  cfg.num_blocks = 2;
  cfg.num_threads = 2;
  ParallelNed par(par_p, inst.part, cfg);

  const auto specs = random_flows(inst, 24, 77);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    Utility util;
    switch (i % 4) {
      case 0:
        util = Utility::log_utility(1e9);
        break;
      case 1:
        util = Utility::alpha_fair(2.0, 1e19);
        break;
      case 2:
        util = Utility::alpha_fair(0.5, 1e5);
        break;
      case 3:
        util = Utility::fixed_demand(rng.uniform(0.5e9, 2e9));
        break;
    }
    seq_p.add_flow(specs[i].route, util);
    const FlowIndex idx = par_p.add_flow(specs[i].route, util);
    par.assign_flow(idx, specs[i].src_block, specs[i].dst_block);
  }
  for (int it = 0; it < 50; ++it) {
    seq.iterate();
    par.iterate();
    for (std::size_t s = 0; s < specs.size(); ++s) {
      ASSERT_NEAR(par.rates()[s], seq.rates()[s],
                  std::max(1.0, seq.rates()[s]) * 1e-9)
          << "iter " << it;
    }
  }
}

TEST(CpuMapTest, LayoutAndDescribe) {
  CpuMapConfig cfg;
  cfg.enable = true;
  cfg.cpus = {0, 2, 4};
  const auto map = CpuMap::make(5, cfg);
  ASSERT_TRUE(map.enabled());
  EXPECT_EQ(map.rows(), 5);
  // Rows wrap round-robin over the explicit CPU list.
  EXPECT_EQ(map.cpu_for_row(0), 0);
  EXPECT_EQ(map.cpu_for_row(1), 2);
  EXPECT_EQ(map.cpu_for_row(2), 4);
  EXPECT_EQ(map.cpu_for_row(3), 0);
  EXPECT_EQ(map.describe(), "0,2,4,0,2");
  // Disabled config -> no-op map.
  const auto off = CpuMap::make(4, CpuMapConfig{});
  EXPECT_FALSE(off.enabled());
  EXPECT_EQ(off.cpu_for_row(0), -1);
  EXPECT_EQ(off.describe(), "");
}

TEST(CpuMapTest, DefaultPoolCoversOnlineCpus) {
  CpuMapConfig cfg;
  cfg.enable = true;
  const int ncpu = CpuMap::num_cpus();
  const auto map = CpuMap::make(2 * ncpu, cfg);
  ASSERT_TRUE(map.enabled());
  for (std::int32_t r = 0; r < map.rows(); ++r) {
    EXPECT_GE(map.cpu_for_row(r), 0);
    EXPECT_LT(map.cpu_for_row(r), ncpu);
  }
  // NUMA discovery always yields at least one node covering the CPUs.
  const auto nodes = CpuMap::numa_nodes();
  ASSERT_FALSE(nodes.empty());
  std::size_t total = 0;
  for (const auto& n : nodes) total += n.size();
  EXPECT_GE(total, static_cast<std::size_t>(ncpu));
}

TEST(CpuMapTest, ParseCpulist) {
  std::vector<int> cpus;
  EXPECT_TRUE(CpuMap::parse_cpulist("0-3,8,10-11", cpus));
  EXPECT_EQ(cpus, (std::vector<int>{0, 1, 2, 3, 8, 10, 11}));
  cpus.clear();
  EXPECT_TRUE(CpuMap::parse_cpulist("5", cpus));
  EXPECT_EQ(cpus, (std::vector<int>{5}));
  cpus.clear();
  EXPECT_TRUE(CpuMap::parse_cpulist("", cpus));
  EXPECT_TRUE(cpus.empty());
  cpus.clear();
  EXPECT_FALSE(CpuMap::parse_cpulist("1,x", cpus));
  cpus.clear();
  EXPECT_FALSE(CpuMap::parse_cpulist("3-", cpus));
  cpus.clear();
  EXPECT_FALSE(CpuMap::parse_cpulist("5-3", cpus));
  cpus.clear();
  EXPECT_FALSE(CpuMap::parse_cpulist("-2", cpus));
}

TEST(CpuMapTest, PinCurrentThreadOnCpu0) {
  // CPU 0 always exists; pinning the calling thread must succeed on
  // Linux (and is allowed to report false elsewhere).
#if defined(__linux__)
  EXPECT_TRUE(CpuMap::pin_current_thread(0));
#endif
  EXPECT_FALSE(CpuMap::pin_current_thread(-1));
}

TEST(ParallelPinnedTest, PinnedWorkersMatchSequential) {
  // §6.1 pinning changes scheduling only: the pinned engine must stay
  // bit-identical (same worker arithmetic, same aggregation order) to
  // the sequential solver within fp summation order.
  Instance inst(8, 2, 2, 4);
  const auto specs = random_flows(inst, 60, 911);

  NumProblem seq_p(inst.caps);
  NedSolver seq(seq_p, 1.0);
  for (const auto& s : specs) {
    seq_p.add_flow(s.route, Utility::log_utility());
  }

  NumProblem par_p(inst.caps);
  ParallelConfig cfg;
  cfg.num_blocks = 4;
  cfg.num_threads = 4;  // one thread per block row
  cfg.pin.enable = true;
  ParallelNed par(par_p, inst.part, cfg);
  EXPECT_FALSE(par.pinning().empty());
  for (const auto& s : specs) {
    const FlowIndex idx = par_p.add_flow(s.route, Utility::log_utility());
    par.assign_flow(idx, s.src_block, s.dst_block);
  }

  for (int it = 0; it < 40; ++it) {
    seq.iterate();
    par.iterate();
    for (std::size_t s = 0; s < specs.size(); ++s) {
      ASSERT_NEAR(par.rates()[s], seq.rates()[s],
                  std::max(1.0, seq.rates()[s]) * 1e-9)
          << "iter " << it << " flow " << s;
    }
  }
}

TEST(ParallelTimingTest, ReportsIterationTime) {
  Instance inst(4, 2, 2, 2);
  NumProblem p(inst.caps);
  ParallelConfig cfg;
  cfg.num_blocks = 2;
  cfg.num_threads = 2;
  ParallelNed par(p, inst.part, cfg);
  const auto specs = random_flows(inst, 20, 3);
  for (const auto& s : specs) {
    par.assign_flow(p.add_flow(s.route, {}), s.src_block, s.dst_block);
  }
  par.iterate();
  EXPECT_GT(par.last_iter_seconds(), 0.0);
}

}  // namespace
}  // namespace ft::core
