#include "core/problem.h"

#include <algorithm>
#include <cmath>

namespace ft::core {

NumProblem::NumProblem(std::vector<double> link_capacities_bps)
    : capacity_(std::move(link_capacities_bps)) {
  FT_CHECK(!capacity_.empty());
  for (double c : capacity_) FT_CHECK(c > 0.0);
}

void NumProblem::scale_capacities(double factor) {
  FT_CHECK(factor > 0.0);
  for (double& c : capacity_) c *= factor;
}

double NumProblem::route_cap(FlowIndex s) const {
  const std::uint32_t* r = route_links_.data() + s * kMaxRouteLinks;
  double cap = capacity_[r[0]];
  for (std::uint32_t i = 1; i < route_len_[s]; ++i) {
    cap = std::min(cap, capacity_[r[i]]);
  }
  return cap;
}

void NumProblem::refresh_demand_bound(FlowIndex s) {
  // x(P) = (w/P)^(1/alpha) == kDemandCapFactor * cap at
  // P = w / (kDemandCapFactor * cap)^alpha. Fixed-demand flows ignore
  // prices entirely. The dominant alpha == 1 case divides directly:
  // pow(x, 1) is x exactly, so the floor is the same without the call.
  const double a = alpha_[s];
  const double bound = kDemandCapFactor * route_cap(s);
  price_floor_[s] = a == 0.0   ? 0.0
                    : a == 1.0 ? weight_[s] / bound
                               : weight_[s] / std::pow(bound, a);
}

void NumProblem::set_capacity(std::size_t link, double capacity_bps) {
  FT_CHECK(link < capacity_.size());
  FT_CHECK(capacity_bps > 0.0);
  capacity_[link] = capacity_bps;
  const auto l = static_cast<std::uint32_t>(link);
  for (FlowIndex s = 0; s < route_len_.size(); ++s) {
    const std::uint32_t* r = route_links_.data() + s * kMaxRouteLinks;
    // An inactive slot has route length 0, so it never matches.
    if (std::find(r, r + route_len_[s], l) != r + route_len_[s]) {
      refresh_demand_bound(s);
    }
  }
  ++version_;
  ++capacity_version_;
}

void NumProblem::reserve(std::size_t slots) {
  route_len_.reserve(slots);
  route_links_.reserve(slots * kMaxRouteLinks);
  weight_.reserve(slots);
  alpha_.reserve(slots);
  price_floor_.reserve(slots);
  free_list_.reserve(slots);
}

FlowIndex NumProblem::add_flow(std::span<const LinkId> route,
                               Utility util) {
  FT_CHECK(!route.empty());
  FT_CHECK(route.size() <= kMaxRouteLinks);
  FT_CHECK(util.weight > 0.0);

  FlowIndex idx;
  if (!free_list_.empty()) {
    idx = free_list_.back();
    free_list_.pop_back();
  } else {
    idx = static_cast<FlowIndex>(route_len_.size());
    route_len_.push_back(0);
    route_links_.resize(route_links_.size() + kMaxRouteLinks, 0);
    weight_.push_back(0.0);
    alpha_.push_back(0.0);
    price_floor_.push_back(0.0);
  }
  weight_[idx] = util.weight;
  alpha_[idx] = util.alpha;
  route_len_[idx] = static_cast<std::uint8_t>(route.size());
  std::uint32_t* r = route_links_.data() + idx * kMaxRouteLinks;
  for (std::size_t i = 0; i < route.size(); ++i) {
    const std::uint32_t l = route[i].value();
    FT_CHECK(l < capacity_.size());
    r[i] = l;
  }
  refresh_demand_bound(idx);
  ++num_active_;
  ++version_;
  return idx;
}

void NumProblem::remove_flow(FlowIndex idx) {
  FT_CHECK(idx < route_len_.size());
  FT_CHECK(route_len_[idx] != 0);
  route_len_[idx] = 0;
  free_list_.push_back(idx);
  FT_CHECK(num_active_ > 0);
  --num_active_;
  ++version_;
}

}  // namespace ft::core
