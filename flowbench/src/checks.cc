#include "checks.h"

#include <algorithm>
#include <cstdio>

namespace flowbench {
namespace {

std::string format(const char* fmt, auto... args) {
  char buf[256];
  std::snprintf(buf, sizeof buf, fmt, args...);
  return buf;
}

}  // namespace

std::vector<std::string> check_fct(const ft::transport::ExpResult& r,
                                   std::size_t expected_started,
                                   std::size_t expected_measured) {
  std::vector<std::string> errors;
  if (r.flows_started != expected_started) {
    errors.push_back(format("started %zu flows, the workload scheduled %zu",
                            r.flows_started, expected_started));
  }
  if (r.flows_completed + r.flows_unfinished != expected_measured) {
    errors.push_back(format(
        "completed %zu + unfinished %zu != measured starts %zu",
        r.flows_completed, r.flows_unfinished, expected_measured));
  }
  std::size_t bucketed = 0;
  for (std::size_t b = 0; b < r.buckets.size(); ++b) {
    const ft::transport::BucketResult& br = r.buckets[b];
    bucketed += br.count;
    if (br.count > 0 && !(br.p50_norm_fct >= 1.0)) {
      errors.push_back(format("bucket %zu: p50 normalized FCT %.4f < 1", b,
                              br.p50_norm_fct));
    }
  }
  if (bucketed != r.flows_completed) {
    errors.push_back(format("size buckets hold %zu flows, %zu completed",
                            bucketed, r.flows_completed));
  }
  if (r.allocator_updates == 0) {
    errors.push_back("the allocator sent no rate updates");
  }
  return errors;
}

std::vector<std::string> check_allocation(const ft::core::NumProblem& problem,
                                          std::span<const double> rates) {
  std::vector<std::string> errors;
  const std::span<const std::uint8_t> len = problem.route_len();
  if (rates.size() < len.size()) {
    errors.push_back(format("%zu rates for %zu flow slots", rates.size(),
                            len.size()));
    return errors;
  }
  std::vector<double> load(problem.num_links(), 0.0);
  const std::span<const std::uint32_t> links = problem.route_links();
  std::size_t zero_rate = 0;
  for (std::size_t s = 0; s < len.size(); ++s) {
    if (len[s] == 0) continue;
    const double x = rates[s];
    if (!(x > 0.0)) ++zero_rate;
    for (std::size_t i = 0; i < len[s]; ++i) {
      load[links[s * ft::core::kMaxRouteLinks + i]] += x;
    }
  }
  if (zero_rate > 0) {
    errors.push_back(format("%zu live flowlets hold no rate", zero_rate));
  }
  std::size_t over = 0;
  double worst = 0.0;
  for (std::size_t l = 0; l < load.size(); ++l) {
    const double cap = problem.capacity(l);
    // Relative slack for summation order only: F-NORM divides each flow
    // by its bottleneck ratio, so exact arithmetic never overfills.
    if (load[l] > cap * (1.0 + 1e-9)) {
      ++over;
      worst = std::max(worst, load[l] / cap);
    }
  }
  if (over > 0) {
    errors.push_back(format("%zu links overfilled (worst %.6f x capacity)",
                            over, worst));
  }
  return errors;
}

std::vector<std::string> check_plane(const ft::sim::ConvergeStats& st,
                                     std::size_t flows_seen,
                                     std::size_t total_flows) {
  std::vector<std::string> errors;
  if (!st.converged) errors.push_back("the control plane did not converge");
  if (flows_seen != total_flows) {
    errors.push_back(format("%zu of %zu flows saw a rate", flows_seen,
                            total_flows));
  }
  if (st.updates_received > st.updates_sent) {
    errors.push_back(format("agents received %llu updates, service sent %llu",
                            static_cast<unsigned long long>(
                                st.updates_received),
                            static_cast<unsigned long long>(st.updates_sent)));
  }
  return errors;
}

}  // namespace flowbench
