#include "sim/oracles.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

#include "core/messages.h"

namespace ft::sim {
namespace {

std::string fmt(const char* f, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, f);
  std::vsnprintf(buf, sizeof buf, f, ap);
  va_end(ap);
  return std::string(buf);
}

OracleReport report(ControlPlaneHarness& h, const char* oracle,
                    std::string detail) {
  OracleReport r;
  r.oracle = oracle;
  r.detail = std::move(detail);
  r.virtual_us = h.virtual_now_us();
  return r;
}

}  // namespace

std::optional<OracleReport> Oracles::check_stale_rate(
    ControlPlaneHarness& h) const {
  std::vector<net::EndpointAgent::FlowView> flows;
  for (int i = 0; i < h.num_agents(); ++i) {
    const net::EndpointAgent& a = h.agent(i);
    if (!a.epoch_seen()) continue;
    const std::uint16_t observed = a.observed_epoch();
    flows.clear();
    a.snapshot_flows(flows);
    for (const auto& f : flows) {
      // A flow in fallback already handed its rate back; a flow that
      // never saw an update has nothing to be stale. Everything else
      // must be stamped by the epoch the agent knows about.
      if (f.in_fallback || f.rate_code == 0) continue;
      if (core::epoch_newer(observed, f.rate_epoch)) {
        return report(
            h, "stale_rate",
            fmt("agent %d flow %u holds rate code %u from epoch %u "
                "while agent observed epoch %u",
                i, f.key, f.rate_code, f.rate_epoch, observed));
      }
    }
  }
  return std::nullopt;
}

std::optional<OracleReport> Oracles::check_lease_safety(
    ControlPlaneHarness& h) const {
  const std::int64_t now = h.virtual_now_us();
  for (int i = 0; i < h.num_agents(); ++i) {
    const net::EndpointAgent& a = h.agent(i);
    if (a.conn_state() != net::ConnState::kConnected) continue;
    const std::int64_t deadline = a.lease_deadline_us();
    if (deadline == 0) continue;  // lease disarmed (or not configured)
    if (now > deadline + cfg_.lease_grace_us) {
      return report(h, "lease_safety",
                    fmt("agent %d still kConnected with lease deadline "
                        "%lld at virtual %lld (+%lld grace)",
                        i, static_cast<long long>(deadline),
                        static_cast<long long>(now),
                        static_cast<long long>(cfg_.lease_grace_us)));
    }
  }
  return std::nullopt;
}

std::optional<OracleReport> Oracles::check_conservation(
    ControlPlaneHarness& h) const {
  const SimTransportStats& st = h.transport().stats();
  const std::int64_t accounted =
      st.bytes_delivered + st.bytes_blackholed + st.bytes_partitioned_up +
      st.bytes_partitioned_down + st.bytes_dropped_sieve +
      st.bytes_dropped_closed + h.transport().stranded_bytes();
  if (st.bytes_accepted != accounted) {
    return report(
        h, "conservation",
        fmt("accepted %lld != accounted %lld (delivered %lld blackholed "
            "%lld part_up %lld part_down %lld sieve %lld closed %lld "
            "stranded %lld)",
            static_cast<long long>(st.bytes_accepted),
            static_cast<long long>(accounted),
            static_cast<long long>(st.bytes_delivered),
            static_cast<long long>(st.bytes_blackholed),
            static_cast<long long>(st.bytes_partitioned_up),
            static_cast<long long>(st.bytes_partitioned_down),
            static_cast<long long>(st.bytes_dropped_sieve),
            static_cast<long long>(st.bytes_dropped_closed),
            static_cast<long long>(h.transport().stranded_bytes())));
  }
  return std::nullopt;
}

std::vector<OracleReport> Oracles::check_safety(
    ControlPlaneHarness& h) const {
  std::vector<OracleReport> out;
  if (auto r = check_stale_rate(h)) out.push_back(std::move(*r));
  if (auto r = check_lease_safety(h)) out.push_back(std::move(*r));
  if (auto r = check_conservation(h)) out.push_back(std::move(*r));
  return out;
}

std::optional<OracleReport> Oracles::check_resource_leaks(
    ControlPlaneHarness& h) const {
  // Every live connection is one stream pair. At quiesce the live set
  // is: each agent holding a socket (kConnected or kDegraded), plus --
  // in VIP mode -- each proxy upstream leg. Anything beyond that is a
  // leaked slot (a close that never happened).
  std::size_t agent_conns = 0;
  for (int i = 0; i < h.num_agents(); ++i) {
    const net::ConnState s = h.agent(i).conn_state();
    if (s == net::ConnState::kConnected || s == net::ConnState::kDegraded) {
      ++agent_conns;
    }
  }
  std::size_t expected_pairs = agent_conns;
  if (h.proxy() != nullptr) expected_pairs += h.proxy()->num_upstreams();
  const std::size_t streams = h.transport().num_streams();
  if (streams != 2 * expected_pairs) {
    return report(h, "resource_leaks",
                  fmt("transport holds %zu stream slots, expected %zu "
                      "(2 x %zu live connections)",
                      streams, 2 * expected_pairs, expected_pairs));
  }
  // The service's connection view must agree with the client side of
  // the same count (agents directly, or proxy sessions in VIP mode).
  const std::size_t service_conns = h.service().num_connections();
  const std::size_t expected_service =
      h.proxy() != nullptr ? h.proxy()->num_upstreams() : agent_conns;
  if (service_conns != expected_service) {
    return report(h, "resource_leaks",
                  fmt("service tracks %zu connections, expected %zu",
                      service_conns, expected_service));
  }
  return std::nullopt;
}

std::optional<OracleReport> Oracles::check_flow_set(
    ControlPlaneHarness& h) const {
  // Union of live agent flowlets, by dense key.
  const std::size_t total = h.total_flows();
  std::vector<bool> agent_has(total + 1, false);
  std::size_t agent_count = 0;
  std::vector<net::EndpointAgent::FlowView> flows;
  for (int i = 0; i < h.num_agents(); ++i) {
    flows.clear();
    h.agent(i).snapshot_flows(flows);
    for (const auto& f : flows) {
      if (f.key <= total && !agent_has[f.key]) {
        agent_has[f.key] = true;
        ++agent_count;
      }
    }
  }
  if (h.allocator().num_active_flowlets() != agent_count) {
    return report(h, "flow_set",
                  fmt("allocator tracks %zu active flowlets, agents "
                      "hold %zu",
                      h.allocator().num_active_flowlets(), agent_count));
  }
  for (std::uint32_t key = 1; key <= total; ++key) {
    if (h.allocator().is_active(key) != agent_has[key]) {
      return report(h, "flow_set",
                    fmt("flow %u: allocator_active=%d agent_holds=%d",
                        key, h.allocator().is_active(key) ? 1 : 0,
                        agent_has[key] ? 1 : 0));
    }
  }
  return std::nullopt;
}

std::vector<OracleReport> Oracles::check_quiesce(
    ControlPlaneHarness& h) const {
  std::vector<OracleReport> out = check_safety(h);
  if (auto r = check_resource_leaks(h)) out.push_back(std::move(*r));
  if (auto r = check_flow_set(h)) out.push_back(std::move(*r));
  return out;
}

std::vector<std::uint16_t> Oracles::collect_rate_codes(
    ControlPlaneHarness& h) {
  std::vector<std::uint16_t> codes(h.total_flows() + 1, 0);
  std::vector<net::EndpointAgent::FlowView> flows;
  for (int i = 0; i < h.num_agents(); ++i) {
    flows.clear();
    h.agent(i).snapshot_flows(flows);
    for (const auto& f : flows) {
      if (f.key < codes.size()) codes[f.key] = f.rate_code;
    }
  }
  return codes;
}

std::optional<OracleReport> Oracles::check_reconvergence(
    ControlPlaneHarness& h,
    const std::vector<std::uint16_t>& baseline) const {
  const std::vector<std::uint16_t> codes = collect_rate_codes(h);
  const std::size_t n = std::min(codes.size(), baseline.size());
  for (std::size_t key = 1; key < n; ++key) {
    const int got = codes[key];
    const int want = baseline[key];
    if (want == 0) continue;  // flow never converged fault-free either
    const int tol = std::max(
        cfg_.rate_code_tolerance,
        static_cast<int>(cfg_.rate_code_rel_tolerance * want));
    if (got == 0 || std::abs(got - want) > tol) {
      return report(h, "reconvergence",
                    fmt("flow %zu rate code %d vs fault-free %d "
                        "(tolerance %d)",
                        key, got, want, tol));
    }
  }
  return std::nullopt;
}

}  // namespace ft::sim
