// Correctness tests for the NUM solvers: closed-form optima on small
// topologies, KKT verification on random instances, convergence-speed
// ordering (NED vs Gradient), churn behaviour, the paper's gamma
// robustness claim, and RT-vs-reference agreement.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.h"
#include "core/exact.h"
#include "core/fgm.h"
#include "core/gradient.h"
#include "core/ned.h"
#include "core/newton_like.h"
#include "core/problem.h"
#include "core/rt.h"

namespace ft::core {
namespace {

std::vector<LinkId> route(std::initializer_list<std::uint32_t> ids) {
  std::vector<LinkId> r;
  for (auto i : ids) r.emplace_back(i);
  return r;
}

// --------------------------------------------------------------------
// Closed-form optima
// --------------------------------------------------------------------

TEST(NedTest, SingleLinkEqualShare) {
  NumProblem p({10e9});
  for (int i = 0; i < 4; ++i) {
    p.add_flow(route({0}), Utility::log_utility());
  }
  NedSolver ned(p);
  for (int i = 0; i < 200; ++i) ned.iterate();
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_NEAR(ned.rates()[s], 2.5e9, 2.5e9 * 1e-4);
  }
  // Optimal price: n * w / c.
  EXPECT_NEAR(ned.prices()[0], 4.0 * 1e9 / 10e9, 1e-3);
}

TEST(NedTest, WeightedProportionalShare) {
  NumProblem p({12e9});
  p.add_flow(route({0}), Utility::log_utility(1e9));
  p.add_flow(route({0}), Utility::log_utility(2e9));
  p.add_flow(route({0}), Utility::log_utility(3e9));
  NedSolver ned(p);
  for (int i = 0; i < 300; ++i) ned.iterate();
  EXPECT_NEAR(ned.rates()[0], 2e9, 2e9 * 1e-3);
  EXPECT_NEAR(ned.rates()[1], 4e9, 4e9 * 1e-3);
  EXPECT_NEAR(ned.rates()[2], 6e9, 6e9 * 1e-3);
}

TEST(NedTest, TandemNetworkClassicOptimum) {
  // Flow 0 crosses links A and B; flows 1, 2 cross one link each.
  // Proportional fairness gives x0 = c/3, x1 = x2 = 2c/3.
  const double c = 10e9;
  NumProblem p({c, c});
  p.add_flow(route({0, 1}), Utility::log_utility());
  p.add_flow(route({0}), Utility::log_utility());
  p.add_flow(route({1}), Utility::log_utility());
  NedSolver ned(p);
  for (int i = 0; i < 400; ++i) ned.iterate();
  EXPECT_NEAR(ned.rates()[0], c / 3, c / 3 * 1e-3);
  EXPECT_NEAR(ned.rates()[1], 2 * c / 3, c * 1e-3);
  EXPECT_NEAR(ned.rates()[2], 2 * c / 3, c * 1e-3);
}

TEST(NedTest, AlphaFairWeights) {
  // alpha = 2, weights 1 and 4 -> rate ratio sqrt(4) = 2.
  NumProblem p({9e9});
  p.add_flow(route({0}), Utility::alpha_fair(2.0, 1e9));
  p.add_flow(route({0}), Utility::alpha_fair(2.0, 4e9));
  NedSolver ned(p);
  for (int i = 0; i < 500; ++i) ned.iterate();
  EXPECT_NEAR(ned.rates()[1] / ned.rates()[0], 2.0, 1e-3);
  EXPECT_NEAR(ned.rates()[0] + ned.rates()[1], 9e9, 9e9 * 1e-4);
}

TEST(NedTest, SingleFlowPinnedAtBottleneck) {
  NumProblem p({10e9, 40e9});
  p.add_flow(route({0, 1}), Utility::log_utility());
  NedSolver ned(p);
  for (int i = 0; i < 200; ++i) ned.iterate();
  EXPECT_NEAR(ned.rates()[0], 10e9, 10e9 * 1e-3);
}

// --------------------------------------------------------------------
// Convergence behaviour
// --------------------------------------------------------------------

int iters_to_converge(Solver& s, std::span<const double> target,
                      double rel_tol, int max_iters) {
  for (int it = 1; it <= max_iters; ++it) {
    s.iterate();
    bool ok = true;
    for (std::size_t i = 0; i < target.size(); ++i) {
      if (std::abs(s.rates()[i] - target[i]) > rel_tol * target[i]) {
        ok = false;
        break;
      }
    }
    if (ok) return it;
  }
  return -1;
}

TEST(ConvergenceTest, NedFasterThanGradient) {
  const std::vector<double> target{2.5e9, 2.5e9, 2.5e9, 2.5e9};
  NumProblem p1({10e9});
  for (int i = 0; i < 4; ++i) p1.add_flow(route({0}), {});
  NedSolver ned(p1);
  const int ned_iters = iters_to_converge(ned, target, 0.01, 5000);

  NumProblem p2({10e9});
  for (int i = 0; i < 4; ++i) p2.add_flow(route({0}), {});
  GradientSolver grad(p2);
  const int grad_iters = iters_to_converge(grad, target, 0.01, 5000);

  ASSERT_GT(ned_iters, 0);
  ASSERT_GT(grad_iters, 0);
  EXPECT_LT(ned_iters, grad_iters);
}

TEST(ConvergenceTest, GammaRobustRange) {
  // §6.2: for gamma in [0.2, 1.5] the network performs similarly; verify
  // NED converges across that whole range.
  for (double gamma : {0.2, 0.4, 0.8, 1.0, 1.2, 1.5}) {
    NumProblem p({10e9, 10e9});
    p.add_flow(route({0, 1}), {});
    p.add_flow(route({0}), {});
    p.add_flow(route({1}), {});
    NedSolver ned(p, gamma);
    const std::vector<double> target{10e9 / 3, 20e9 / 3, 20e9 / 3};
    EXPECT_GT(iters_to_converge(ned, target, 0.01, 5000), 0)
        << "gamma=" << gamma;
  }
}

TEST(ConvergenceTest, ChurnReconvergence) {
  NumProblem p({10e9});
  const FlowIndex a = p.add_flow(route({0}), {});
  NedSolver ned(p);
  for (int i = 0; i < 200; ++i) ned.iterate();
  EXPECT_NEAR(ned.rates()[a], 10e9, 10e9 * 0.01);

  // A second flow arrives: both should converge to c/2.
  const FlowIndex b = p.add_flow(route({0}), {});
  for (int i = 0; i < 300; ++i) ned.iterate();
  EXPECT_NEAR(ned.rates()[a], 5e9, 5e9 * 0.01);
  EXPECT_NEAR(ned.rates()[b], 5e9, 5e9 * 0.01);

  // First flow leaves: survivor reclaims the link.
  p.remove_flow(a);
  for (int i = 0; i < 300; ++i) ned.iterate();
  EXPECT_NEAR(ned.rates()[b], 10e9, 10e9 * 0.01);
}

TEST(ConvergenceTest, ClampedFlowRecovery) {
  // Reaches the all-flows-clamped over-allocated state the multiplicative
  // guard in ned.cc exists for: one flow pinned at capacity (price near
  // w/c), then a second arrives.
  NumProblem p({10e9});
  const FlowIndex a = p.add_flow(route({0}), {});
  NedSolver ned(p);
  for (int i = 0; i < 500; ++i) ned.iterate();
  const FlowIndex b = p.add_flow(route({0}), {});
  for (int i = 0; i < 500; ++i) ned.iterate();
  EXPECT_NEAR(ned.rates()[a], 5e9, 5e9 * 0.02);
  EXPECT_NEAR(ned.rates()[b], 5e9, 5e9 * 0.02);
  // And feasible.
  EXPECT_LE(ned.link_alloc()[0], 10e9 * 1.01);
}

// --------------------------------------------------------------------
// Exact solver + KKT on random instances
// --------------------------------------------------------------------

struct RandomProblem {
  NumProblem problem;
  int flows;
};

NumProblem random_problem(std::uint64_t seed, std::size_t links,
                          std::size_t flows) {
  Rng rng(seed);
  std::vector<double> caps;
  caps.reserve(links);
  for (std::size_t l = 0; l < links; ++l) {
    caps.push_back(rng.uniform(5e9, 40e9));
  }
  NumProblem p(std::move(caps));
  for (std::size_t f = 0; f < flows; ++f) {
    const std::size_t hops = 1 + rng.below(4);
    std::vector<LinkId> r;
    std::size_t start = rng.below(links);
    for (std::size_t h = 0; h < hops; ++h) {
      // Distinct links per route.
      r.emplace_back(
          static_cast<std::uint32_t>((start + h * 7 + h) % links));
    }
    // De-duplicate while preserving order.
    std::vector<LinkId> uniq;
    for (LinkId l : r) {
      bool seen = false;
      for (LinkId u : uniq) seen = seen || u == l;
      if (!seen) uniq.push_back(l);
    }
    p.add_flow(uniq, Utility::log_utility(rng.uniform(0.5e9, 2e9)));
  }
  return p;
}

class ExactSolveP : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ExactSolveP, KktResidualSmall) {
  NumProblem p = random_problem(GetParam(), 12, 40);
  const ExactResult res = solve_exact(p);
  EXPECT_TRUE(res.converged) << "seed " << GetParam();
  EXPECT_LT(res.kkt_residual, 1e-3) << "seed " << GetParam();
  EXPECT_GT(res.total_rate, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExactSolveP,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                           11, 12, 13, 14, 15, 16));

TEST(ExactTest, ObjectiveIsMaximal) {
  // Perturbing the optimal rates along feasible directions must not
  // increase the objective.
  NumProblem p = random_problem(123, 6, 12);
  const ExactResult res = solve_exact(p);
  ASSERT_TRUE(res.converged);
  Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> perturbed = res.rates;
    for (FlowIndex s = 0; s < p.num_slots(); ++s) {
      if (!p.flow(s).active()) continue;
      perturbed[s] =
          std::max(1.0, perturbed[s] * rng.uniform(0.9, 0.999));
    }
    // Scaled-down rates are feasible; objective must be lower.
    EXPECT_LE(objective_value(p, perturbed), res.objective);
  }
}

// --------------------------------------------------------------------
// Baselines
// --------------------------------------------------------------------

TEST(GradientTest, ConvergesOnSingleLink) {
  NumProblem p({10e9});
  for (int i = 0; i < 4; ++i) p.add_flow(route({0}), {});
  GradientSolver grad(p, 0.1);
  for (int i = 0; i < 5000; ++i) grad.iterate();
  for (int s = 0; s < 4; ++s) {
    EXPECT_NEAR(grad.rates()[s], 2.5e9, 2.5e9 * 0.02);
  }
}

TEST(NewtonLikeTest, ConvergesOnStaticProblem) {
  NumProblem p({10e9});
  for (int i = 0; i < 4; ++i) p.add_flow(route({0}), {});
  NewtonLikeSolver nl(p);
  for (int i = 0; i < 3000; ++i) nl.iterate();
  for (int s = 0; s < 4; ++s) {
    EXPECT_NEAR(nl.rates()[s], 2.5e9, 2.5e9 * 0.05);
  }
}

TEST(FgmTest, ConvergesOnStaticProblem) {
  NumProblem p({10e9});
  for (int i = 0; i < 4; ++i) p.add_flow(route({0}), {});
  FgmSolver fgm(p);
  double best_err = 1e18;
  for (int i = 0; i < 5000; ++i) {
    fgm.iterate();
    double err = 0;
    for (int s = 0; s < 4; ++s) {
      err = std::max(err, std::abs(fgm.rates()[s] - 2.5e9));
    }
    best_err = std::min(best_err, err);
  }
  // Accelerated gradient oscillates; require it to have come close at
  // some point.
  EXPECT_LT(best_err, 2.5e9 * 0.05);
}

TEST(FgmTest, ChurnCausesLargeOverAllocation) {
  // Figure 12's qualitative claim: under flowlet churn FGM's momentum
  // makes allocations unrealistic, far worse than NED's transients.
  Rng rng(5);
  NumProblem pf({10e9, 10e9, 10e9, 10e9});
  NumProblem pn({10e9, 10e9, 10e9, 10e9});
  FgmSolver fgm(pf);
  NedSolver ned(pn);
  std::vector<FlowIndex> af, an;
  double fgm_over = 0.0, ned_over = 0.0;
  Rng rng2(5);
  for (int step = 0; step < 2000; ++step) {
    const auto l0 = static_cast<std::uint32_t>(rng.below(4));
    const auto l1 = static_cast<std::uint32_t>(rng.below(4));
    const bool add = af.size() < 4 || rng.uniform() < 0.5;
    if (add) {
      auto r = l0 == l1 ? route({l0}) : route({l0, l1});
      af.push_back(pf.add_flow(r, {}));
      an.push_back(pn.add_flow(r, {}));
    } else {
      const auto pick = rng.below(af.size());
      pf.remove_flow(af[pick]);
      pn.remove_flow(an[pick]);
      af.erase(af.begin() + static_cast<std::ptrdiff_t>(pick));
      an.erase(an.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    for (int i = 0; i < 3; ++i) {
      fgm.iterate();
      ned.iterate();
    }
    fgm_over += fgm.total_over_allocation();
    ned_over += ned.total_over_allocation();
  }
  EXPECT_GT(fgm_over, 2.0 * ned_over);
}

// --------------------------------------------------------------------
// RT variants
// --------------------------------------------------------------------

TEST(FastRecipTest, AccurateOverWideRange) {
  for (float x = 1e-6f; x < 1e12f; x *= 3.7f) {
    const float r = fast_recip(x);
    EXPECT_NEAR(r * x, 1.0f, 1e-4f) << x;
  }
}

TEST(RtTest, NedRtTracksReference) {
  NumProblem pr = random_problem(77, 8, 24);
  NumProblem pt = random_problem(77, 8, 24);
  NedSolver ref(pr);
  NedRtSolver rt(pt);
  for (int i = 0; i < 300; ++i) {
    ref.iterate();
    rt.iterate();
  }
  for (FlowIndex s = 0; s < pr.num_slots(); ++s) {
    if (!pr.flow(s).active()) continue;
    EXPECT_NEAR(rt.rates()[s], ref.rates()[s],
                std::max(1e6, ref.rates()[s] * 0.02))
        << "slot " << s;
  }
}

TEST(RtTest, GradientRtTracksReference) {
  NumProblem pr = random_problem(78, 8, 24);
  NumProblem pt = random_problem(78, 8, 24);
  GradientSolver ref(pr, 0.1);
  GradientRtSolver rt(pt, 0.1);
  for (int i = 0; i < 1000; ++i) {
    ref.iterate();
    rt.iterate();
  }
  for (FlowIndex s = 0; s < pr.num_slots(); ++s) {
    if (!pr.flow(s).active()) continue;
    EXPECT_NEAR(rt.rates()[s], ref.rates()[s],
                std::max(1e6, ref.rates()[s] * 0.02));
  }
}

// --------------------------------------------------------------------
// Problem bookkeeping
// --------------------------------------------------------------------

TEST(ProblemTest, SlotReuseAfterRemoval) {
  NumProblem p({10e9});
  const FlowIndex a = p.add_flow(route({0}), {});
  const FlowIndex b = p.add_flow(route({0}), {});
  EXPECT_EQ(p.num_active(), 2u);
  p.remove_flow(a);
  EXPECT_EQ(p.num_active(), 1u);
  const FlowIndex c = p.add_flow(route({0}), {});
  EXPECT_EQ(c, a);  // free list reuse
  EXPECT_EQ(p.num_slots(), 2u);
  (void)b;
}

TEST(ProblemTest, RateCapIsBottleneck) {
  NumProblem p({10e9, 40e9, 20e9});
  const FlowIndex f = p.add_flow(route({1, 2}), {});
  EXPECT_DOUBLE_EQ(p.flow(f).rate_cap(), 20e9);
}

TEST(ProblemTest, VersionBumpsOnChurn) {
  NumProblem p({1e9});
  const auto v0 = p.version();
  const FlowIndex f = p.add_flow(route({0}), {});
  EXPECT_GT(p.version(), v0);
  const auto v1 = p.version();
  p.remove_flow(f);
  EXPECT_GT(p.version(), v1);
}


TEST(ProblemTest, SetCapacityAfterChurnMatchesRebuiltProblem) {
  // Churn with slot recycling, interleaved with capacity changes: every
  // active slot's demand bound and rate cap must equal those of a
  // problem built fresh from the live routes at the current capacities.
  std::vector<double> caps = {1e9, 2e9, 3e9, 4e9, 5e9, 6e9};
  NumProblem p(caps);
  Rng rng(3);
  std::vector<FlowIndex> live;
  int recycled = 0;
  int checks = 0;
  const auto check = [&] {
    ++checks;
    NumProblem fresh(caps);
    for (FlowIndex s = 0; s < p.num_slots(); ++s) {
      if (!p.flow(s).active()) continue;
      const auto r = p.flow(s).route();
      std::vector<LinkId> links(r.begin(), r.end());
      const FlowIndex f = fresh.add_flow(links, p.flow(s).util());
      EXPECT_EQ(p.flow(s).price_floor(), fresh.flow(f).price_floor())
          << "slot " << s;
      EXPECT_EQ(p.flow(s).rate_cap(), fresh.flow(f).rate_cap())
          << "slot " << s;
    }
    EXPECT_EQ(fresh.num_active(), p.num_active());
  };
  for (int step = 0; step < 600; ++step) {
    if (!live.empty() && rng.uniform() < 0.45) {
      const auto i = rng.below(live.size());
      p.remove_flow(live[i]);
      live[i] = live.back();
      live.pop_back();
    } else {
      // 1-4 distinct links; log, alpha = 2 and fixed-demand utilities.
      std::vector<LinkId> r;
      const auto hops = 1 + rng.below(4);
      while (r.size() < hops) {
        const LinkId l(static_cast<std::uint32_t>(rng.below(caps.size())));
        if (std::find(r.begin(), r.end(), l) == r.end()) r.push_back(l);
      }
      const auto kind = rng.below(3);
      const Utility u = kind == 0   ? Utility::log_utility(1e9 + step)
                        : kind == 1 ? Utility::alpha_fair(2.0)
                                    : Utility::fixed_demand(1e8);
      const std::size_t slots_before = p.num_slots();
      live.push_back(p.add_flow(r, u));
      if (live.back() < slots_before) ++recycled;
    }
    if (step % 40 == 39) {
      const auto l = rng.below(caps.size());
      caps[l] = static_cast<double>(1 + rng.below(8)) * 1e9;
      p.set_capacity(l, caps[l]);
      check();
    }
  }
  EXPECT_EQ(checks, 15);
  EXPECT_GT(recycled, 0);
  EXPECT_LT(p.num_active(), p.num_slots());  // free slots were skipped
}

TEST(ProblemTest, SetCapacityRefreshesOnlyFlowsOnLink) {
  NumProblem p({10e9, 20e9});
  const FlowIndex on = p.add_flow(route({0, 1}), {});
  const FlowIndex off = p.add_flow(route({1}), {});
  EXPECT_DOUBLE_EQ(p.flow(on).rate_cap(), 10e9);
  EXPECT_DOUBLE_EQ(p.flow(off).rate_cap(), 20e9);
  p.set_capacity(0, 4e9);
  EXPECT_DOUBLE_EQ(p.flow(on).rate_cap(), 4e9);
  EXPECT_DOUBLE_EQ(p.flow(off).rate_cap(), 20e9);
  // Demand bound moved with the new bottleneck.
  const Utility u = p.flow(on).util();
  EXPECT_DOUBLE_EQ(p.flow(on).price_floor(),
                   u.weight / std::pow(kDemandCapFactor * 4e9, u.alpha));
}

TEST(ProblemTest, ReservePreSizesSlotArrays) {
  NumProblem p({1e9});
  p.reserve(64);
  std::vector<FlowIndex> slots;
  for (int i = 0; i < 64; ++i) slots.push_back(p.add_flow(route({0}), {}));
  EXPECT_EQ(p.num_active(), 64u);
  for (const FlowIndex s : slots) p.remove_flow(s);
  EXPECT_EQ(p.num_active(), 0u);
}

}  // namespace
}  // namespace ft::core
