#include "core/problem.h"

#include <algorithm>
#include <cmath>

namespace ft::core {

NumProblem::NumProblem(std::vector<double> link_capacities_bps)
    : capacity_(std::move(link_capacities_bps)),
      link_flows_(capacity_.size()) {
  FT_CHECK(!capacity_.empty());
  for (double c : capacity_) FT_CHECK(c > 0.0);
}

void NumProblem::scale_capacities(double factor) {
  FT_CHECK(factor > 0.0);
  for (double& c : capacity_) c *= factor;
}

void NumProblem::refresh_demand_bound(FlowIndex s) {
  const std::uint32_t* r = route_links_.data() + s * kMaxRouteLinks;
  double cap = capacity_[r[0]];
  for (std::uint32_t i = 1; i < route_len_[s]; ++i) {
    cap = std::min(cap, capacity_[r[i]]);
  }
  rate_cap_[s] = cap;
  // x(P) = (w/P)^(1/alpha) == kDemandCapFactor * cap at
  // P = w / (kDemandCapFactor * cap)^alpha. Fixed-demand flows ignore
  // prices entirely.
  price_floor_[s] =
      alpha_[s] == 0.0
          ? 0.0
          : weight_[s] / std::pow(kDemandCapFactor * cap, alpha_[s]);
}

void NumProblem::set_capacity(std::size_t link, double capacity_bps) {
  FT_CHECK(link < capacity_.size());
  FT_CHECK(capacity_bps > 0.0);
  capacity_[link] = capacity_bps;
  for (const std::uint32_t entry : link_flows_[link]) {
    refresh_demand_bound(adj_slot(entry));
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
  rate_cap_.reserve(slots);
  adj_pos_.reserve(slots * kMaxRouteLinks);
  free_list_.reserve(slots);
  // Per-link adjacency: reserve each link's uniform-average share (the
  // total matches route_links_, so this at most doubles the reserve's
  // footprint). Links loaded beyond the average still grow to their own
  // peak once, then stay there across churn.
  const std::size_t per_link =
      slots * kMaxRouteLinks / link_flows_.size() + 1;
  for (auto& adj : link_flows_) adj.reserve(per_link);
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
    rate_cap_.push_back(0.0);
    adj_pos_.resize(adj_pos_.size() + kMaxRouteLinks, 0);
  }
  weight_[idx] = util.weight;
  alpha_[idx] = util.alpha;
  route_len_[idx] = static_cast<std::uint8_t>(route.size());
  std::uint32_t* r = route_links_.data() + idx * kMaxRouteLinks;
  std::uint32_t* pos = adj_pos_.data() + idx * kMaxRouteLinks;
  for (std::size_t i = 0; i < route.size(); ++i) {
    const std::uint32_t l = route[i].value();
    FT_CHECK(l < capacity_.size());
    r[i] = l;
    auto& adj = link_flows_[l];
    pos[i] = static_cast<std::uint32_t>(adj.size());
    adj.push_back((idx << 3) | static_cast<std::uint32_t>(i));
  }
  refresh_demand_bound(idx);
  ++num_active_;
  ++version_;
  return idx;
}

void NumProblem::remove_flow(FlowIndex idx) {
  FT_CHECK(idx < route_len_.size());
  FT_CHECK(route_len_[idx] != 0);
  const std::uint32_t* r = route_links_.data() + idx * kMaxRouteLinks;
  const std::uint32_t* pos = adj_pos_.data() + idx * kMaxRouteLinks;
  for (std::uint32_t i = 0; i < route_len_[idx]; ++i) {
    auto& adj = link_flows_[r[i]];
    const std::uint32_t p = pos[i];
    FT_CHECK(p < adj.size() && adj_slot(adj[p]) == idx);
    // Swap-remove, fixing the moved entry's position index.
    adj[p] = adj.back();
    adj.pop_back();
    if (p < adj.size()) {
      adj_pos_[adj_slot(adj[p]) * kMaxRouteLinks + adj_route_idx(adj[p])] =
          p;
    }
  }
  route_len_[idx] = 0;
  free_list_.push_back(idx);
  FT_CHECK(num_active_ > 0);
  --num_active_;
  ++version_;
}

}  // namespace ft::core
