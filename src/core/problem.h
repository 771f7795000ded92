// Online NUM problem instance: a fixed set of capacitated links and a
// churning set of flows, each with a fixed route (<= 8 links) and a
// utility function.
//
// Flow storage is structure-of-arrays with slot recycling through a free
// list: flowlet start/end is O(route length) and slot indices stay dense,
// so solvers iterate over slots as branch-light linear sweeps over
// parallel arrays (route lengths, flattened routes, utility parameters,
// demand-bound floors) instead of chasing per-flow objects -- the §6.1
// requirement that the allocator's inner loop stay cache-resident.
// Churn touches only the flow's own slot. A capacity change
// (set_capacity, the cold §7 path) finds the flows on its link with one
// pass over the slot arrays.
//
// The old object-per-flow accessors survive as thin views (FlowView) so
// cold paths -- backend grid assignment, exact solvers, tests -- migrate
// without semantic change.
#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/ids.h"
#include "core/utility.h"

namespace ft::core {

using FlowIndex = std::uint32_t;
inline constexpr FlowIndex kInvalidFlow = UINT32_MAX;

inline constexpr std::size_t kMaxRouteLinks = 8;

// Demand bound: a flow's demand x(P) is evaluated at an *effective* path
// price P_eff = max(P, floor) chosen so that x never exceeds
// kDemandCapFactor times the flow's bottleneck capacity. This keeps
// transient demands finite (the paper's pure dynamics would request
// unbounded rates when a path's prices are all ~0) while preserving
// NED's conditioning: a flow at the bound still reports the clamp-edge
// sensitivity dx/dP, so H_ll never collapses to zero on loaded links.
// Factor 1.0 = a flow never demands more than its bottleneck capacity --
// the physical NIC limit; endpoints cannot transmit faster regardless of
// the allocation.
inline constexpr double kDemandCapFactor = 1.0;

// Demand x(P) and slope dx/dP from the SoA utility parameters, with the
// demand-bound floor applied. Matches Utility::rate / Utility::drate at
// max(price_sum, floor) to within one reciprocal rounding: the dominant
// alpha == 1 case spends one division instead of two (x = w * (1/P),
// dx = -x * (1/P)), which is what makes the solver sweep branch-light
// and division-bound-free. Every solver hot loop inlines this so SoA
// and view paths cannot drift apart.
inline void flow_demand(double weight, double alpha, double floor,
                        double price_sum, double& x, double& dx) {
  double p = price_sum < floor ? floor : price_sum;
  if (alpha == 0.0) {  // fixed-demand pseudo-utility (§7 external traffic)
    x = weight;
    dx = 0.0;
    return;
  }
  if (p < kMinPathPrice) p = kMinPathPrice;
  if (alpha == 1.0) {
    const double rp = 1.0 / p;
    x = weight * rp;
    dx = -x * rp;
    return;
  }
  x = std::pow(weight / p, 1.0 / alpha);
  dx = -x / (alpha * p);
}

class NumProblem;

// Thin per-slot view over the SoA arrays; the object-style accessor for
// cold paths. Invalidated by add_flow/remove_flow like an index would be.
class FlowView {
 public:
  [[nodiscard]] bool active() const;
  [[nodiscard]] std::span<const std::uint32_t> route() const;
  // The route's bottleneck capacity, computed on each call.
  [[nodiscard]] double rate_cap() const;
  [[nodiscard]] double price_floor() const;
  [[nodiscard]] Utility util() const;

  // Demand and its derivative at path price `price_sum`, with the bound
  // applied. Used identically by every solver.
  [[nodiscard]] double demand(double price_sum) const;
  [[nodiscard]] double demand_slope(double price_sum, double x) const;

 private:
  friend class NumProblem;
  FlowView(const NumProblem* p, FlowIndex s) : p_(p), s_(s) {}
  const NumProblem* p_;
  FlowIndex s_;
};

class NumProblem {
 public:
  explicit NumProblem(std::vector<double> link_capacities_bps);

  [[nodiscard]] std::size_t num_links() const { return capacity_.size(); }
  [[nodiscard]] double capacity(std::size_t link) const {
    return capacity_[link];
  }
  [[nodiscard]] std::span<const double> capacities() const {
    return capacity_;
  }

  // Scales all capacities by `factor` (the allocator reserves headroom of
  // one notification threshold, §6.4).
  void scale_capacities(double factor);

  // Adjusts one link's capacity at runtime (§7 closed loop: "dynamically
  // adjust link capacities ... for external traffic"). Refreshes the
  // demand bounds of exactly the active flows whose route holds the
  // link, in one pass over the slot arrays: O(slots), so a caller that
  // changes many links should expect one pass per call.
  void set_capacity(std::size_t link, double capacity_bps);

  FlowIndex add_flow(std::span<const LinkId> route, Utility util);
  void remove_flow(FlowIndex idx);

  // Pre-sizes every per-slot array (and the slot free list) so that the
  // next `slots` concurrent flows churn without reallocating.
  void reserve(std::size_t slots);

  [[nodiscard]] std::size_t num_slots() const { return route_len_.size(); }
  [[nodiscard]] std::size_t num_active() const { return num_active_; }

  [[nodiscard]] FlowView flow(FlowIndex idx) const {
    FT_CHECK(idx < route_len_.size());
    return FlowView(this, idx);
  }

  // --- SoA hot-path arrays, indexed by slot. A slot is inactive iff its
  // route length is 0. route_links() is flattened with stride
  // kMaxRouteLinks; only the first route_len()[s] entries are valid.
  [[nodiscard]] std::span<const std::uint8_t> route_len() const {
    return route_len_;
  }
  [[nodiscard]] std::span<const std::uint32_t> route_links() const {
    return route_links_;
  }
  [[nodiscard]] std::span<const double> weight() const { return weight_; }
  [[nodiscard]] std::span<const double> alpha() const { return alpha_; }
  [[nodiscard]] std::span<const double> price_floor() const {
    return price_floor_;
  }

  // Monotone counter bumped on every add/remove; lets solvers detect
  // churn (e.g. to reset momentum state).
  [[nodiscard]] std::uint64_t version() const { return version_; }
  // Monotone counter bumped on every set_capacity: a solver that caches
  // price_floor() per flow re-reads it when this moves.
  [[nodiscard]] std::uint64_t capacity_version() const {
    return capacity_version_;
  }

 private:
  friend class FlowView;

  // Smallest capacity along an active slot's route.
  [[nodiscard]] double route_cap(FlowIndex s) const;
  // Recomputes price_floor_ for one active slot from current capacities
  // (same arithmetic as add_flow).
  void refresh_demand_bound(FlowIndex s);

  std::vector<double> capacity_;

  // Per-slot SoA arrays (all sized num_slots()).
  std::vector<std::uint8_t> route_len_;      // 0 == inactive slot
  std::vector<std::uint32_t> route_links_;   // stride kMaxRouteLinks
  std::vector<double> weight_;
  std::vector<double> alpha_;                // 0 == fixed demand
  std::vector<double> price_floor_;          // P_eff floor (demand bound)
  std::vector<FlowIndex> free_list_;
  std::size_t num_active_ = 0;
  std::uint64_t version_ = 0;
  std::uint64_t capacity_version_ = 0;
};

inline bool FlowView::active() const {
  return p_->route_len_[s_] != 0;
}
inline std::span<const std::uint32_t> FlowView::route() const {
  return {p_->route_links_.data() + s_ * kMaxRouteLinks,
          p_->route_len_[s_]};
}
inline double FlowView::rate_cap() const { return p_->route_cap(s_); }
inline double FlowView::price_floor() const {
  return p_->price_floor_[s_];
}
inline Utility FlowView::util() const {
  return Utility{p_->weight_[s_], p_->alpha_[s_]};
}
inline double FlowView::demand(double price_sum) const {
  double x, dx;
  flow_demand(p_->weight_[s_], p_->alpha_[s_], p_->price_floor_[s_],
              price_sum, x, dx);
  return x;
}
inline double FlowView::demand_slope(double price_sum, double x) const {
  const double floor = p_->price_floor_[s_];
  return util().drate(price_sum < floor ? floor : price_sum, x);
}

}  // namespace ft::core
