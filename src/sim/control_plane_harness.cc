#include "sim/control_plane_harness.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "workload/traffic_gen.h"

namespace ft::sim {

namespace {

topo::ClosConfig clos_cfg(const HarnessConfig& cfg) {
  topo::ClosConfig c;
  c.servers_per_rack = cfg.servers_per_rack;
  c.racks =
      (cfg.num_endpoints + cfg.servers_per_rack - 1) / cfg.servers_per_rack;
  c.spines = cfg.spines;
  c.host_link_bps = cfg.host_link_bps;
  c.fabric_link_bps = cfg.fabric_link_bps;
  return c;
}

}  // namespace

ControlPlaneHarness::ControlPlaneHarness(HarnessConfig cfg)
    : cfg_(cfg),
      tr_(events_, cfg_.seed),
      topo_(clos_cfg(cfg_)),
      alloc_(topo_.graph().capacities(), cfg_.alloc) {
  FT_CHECK(cfg_.num_endpoints > 0);
  FT_CHECK(cfg_.num_endpoints <= topo_.num_hosts());
  tr_.set_default_link(cfg_.link);
  // Every obs:: timestamp in the process (flight recorder, traces,
  // metrics) now reads the event queue's clock; the dtor restores.
  obs::set_clock_override(&tr_.virtual_clock());

  loop_ = std::make_unique<SimLoop>(tr_);
  svc_ = std::make_unique<net::AllocatorService>(*loop_, alloc_, topo_,
                                                server_cfg());
  port_ = svc_->tcp_port();
  FT_CHECK(port_ > 0);

  // VIP mode: agents dial the proxy; restart_service() becomes a warm
  // restart the agents' sockets never see.
  int dial_port = port_;
  if (cfg_.use_vip_proxy) {
    SimProxy::Config pc;
    pc.upstream_port = port_;
    pc.redial_delay_us = cfg_.vip_redial_delay_us;
    proxy_ = std::make_unique<SimProxy>(tr_, pc);
    dial_port = proxy_->port();
  }

  const int n = cfg_.num_endpoints;
  agents_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    net::AgentConfig ac;
    ac.transport = &tr_;
    ac.auto_reconnect = true;
    // Explicit per-agent jitter seed: the default derives from the
    // object's address, which would break cross-run determinism.
    ac.reconnect_seed =
        derive_seed(cfg_.seed, static_cast<std::uint64_t>(i));
    ac.heartbeat_period_us = cfg_.agent_heartbeat_period_us;
    ac.peer_timeout_us = cfg_.agent_peer_timeout_us;
    ac.epoch_filtering = cfg_.agent_epoch_filtering;
    ac.lease_enforcement = cfg_.agent_lease_enforcement;
    ac.leak_connection_fds = cfg_.agent_leak_fds;
    agents_.push_back(std::make_unique<net::EndpointAgent>(std::move(ac)));
    agents_.back()->set_rate_callback(
        [this, i](std::uint32_t key, double /*rate_bps*/,
                  std::uint16_t code) { note_rate(i, key, code); });
  }
  due_.resize(agents_.size());
  for (std::size_t i = 0; i < agents_.size(); ++i) refresh(i);

  // Connection ramp: dials spread uniformly across connect_spread_us so
  // ten thousand SYNs do not land on one virtual instant.
  for (int i = 0; i < n; ++i) {
    const std::int64_t at_us = cfg_.connect_spread_us * i / n;
    loop_->add_timer(at_us, [this, i, dial_port] {
      const auto a = static_cast<std::size_t>(i);
      (void)agents_[a]->connect_tcp("sim", dial_port);
      refresh(a);
    });
  }

  // Flowlet arrivals from the Poisson generator, offset behind the
  // connection ramp; each lands on its source host's agent through the
  // real flowlet_start batching path.
  wl::TrafficConfig tc;
  tc.num_hosts = n;
  tc.host_link_bps = cfg_.host_link_bps;
  tc.seed = derive_seed(cfg_.seed, 0xf1071e75ULL);
  total_flows_ =
      static_cast<std::size_t>(n) *
      static_cast<std::size_t>(cfg_.flows_per_endpoint);
  seen_.assign(total_flows_ + 1, false);
  wl::TrafficGenerator gen(tc);
  for (std::size_t k = 0; k < total_flows_; ++k) {
    const wl::FlowletEvent ev = gen.next();
    const std::uint32_t key = static_cast<std::uint32_t>(k + 1);
    const std::int64_t at_us =
        cfg_.connect_spread_us + ev.start / kMicrosecond;
    const std::uint32_t hint = static_cast<std::uint32_t>(std::min<
        std::int64_t>(ev.bytes, std::numeric_limits<std::uint32_t>::max()));
    loop_->add_timer(at_us, [this, ev, key, hint] {
      const auto a = static_cast<std::size_t>(ev.src_host);
      (void)agents_[a]->flowlet_start(
          key, static_cast<std::uint16_t>(ev.src_host),
          static_cast<std::uint16_t>(ev.dst_host), hint);
      refresh(a);
    });
  }

  loop_->add_periodic(cfg_.poll_period_us, [this] { sweep(); });
}

// Index order, every poll_period_us -- the virtual-time equivalent of
// each endpoint's poll loop, deterministic by design. Skipping an
// agent that is neither readable nor due moves no trajectory: its poll
// would read EAGAIN, find no timer due and have nothing to flush.
void ControlPlaneHarness::sweep() {
  const std::int64_t now = tr_.virtual_clock().now_us();
  for (std::size_t i = 0; i < agents_.size(); ++i) {
    if (!due_[i].ready && due_[i].poll_at_us > now) continue;
    (void)agents_[i]->poll();
    ++agent_polls_;
    refresh(i);
  }
}

void ControlPlaneHarness::refresh(std::size_t i) {
  const net::EndpointAgent& a = *agents_[i];
  Due& d = due_[i];
  d.poll_at_us = a.next_poll_us();
  // A reconnect moved the agent to a fresh handle (handles are never
  // reused; close() unbound the old one). The level re-check matters
  // too: poll() stops reading at a short read, so an EOF queued behind
  // the last bytes is only seen by the next poll.
  const int h = a.handle();
  d.ready = tr_.readable(h);  // false without a handle
  if (h >= 0) tr_.set_ready_flag(h, &d.ready);
}

ControlPlaneHarness::~ControlPlaneHarness() {
  obs::set_clock_override(nullptr);
}

net::ServerConfig ControlPlaneHarness::server_cfg() {
  net::ServerConfig s;
  s.transport = &tr_;
  s.tcp_port = port_ > 0 ? port_ : 0;  // rebind the same port on restart
  s.iteration_period_us = cfg_.iteration_period_us;
  s.heartbeat_period_us = cfg_.heartbeat_period_us;
  s.rate_lease_us = cfg_.rate_lease_us;
  s.peer_timeout_us = cfg_.peer_timeout_us;
  // Deterministic epoch (the process-global fallback would couple runs
  // in one test binary): the first service is epoch 1, each restart
  // increments, so agents can order instances across warm restarts.
  s.epoch = static_cast<std::uint16_t>(1 + restarts_);
  return s;
}

void ControlPlaneHarness::restart_service() {
  svc_.reset();  // closes every connection, ends every flowlet
  ++restarts_;
  svc_ = std::make_unique<net::AllocatorService>(*loop_, alloc_, topo_,
                                                server_cfg());
  FT_CHECK(svc_->tcp_port() == port_);
}

void ControlPlaneHarness::note_rate(int agent_idx, std::uint32_t key,
                                    std::uint16_t code) {
  if (key < seen_.size() && !seen_[key]) {
    seen_[key] = true;
    ++seen_count_;
  }
  const auto fnv = [this](std::uint64_t v) {
    hash_ ^= v;
    hash_ *= 1099511628211ULL;  // FNV-1a prime
  };
  fnv(static_cast<std::uint64_t>(events_.now() / kMicrosecond));
  fnv(static_cast<std::uint64_t>(agent_idx));
  fnv(key);
  fnv(code);
}

void ControlPlaneHarness::run_for(std::int64_t us) {
  events_.run_until(events_.now() + us * kMicrosecond);
}

ConvergeStats ControlPlaneHarness::run_to_convergence() {
  ConvergeStats out;
  const Time horizon = cfg_.max_virtual_us * kMicrosecond;
  // Stability watches the ORGANIC update stream (emitted minus
  // anti-entropy re-emissions): refresh traffic flows forever by
  // design and must not hold convergence open. The quiet window is
  // stretched to cover one full refresh sweep (+1 for stagger phase)
  // so every agent-held rate has been re-synced to the allocator's
  // final value by the time quiesce oracles run.
  const auto organic = [this] {
    const core::AllocatorStats a = alloc_.stats();
    return a.updates_emitted - a.updates_refreshed;
  };
  const int need =
      std::max(cfg_.stable_rounds,
               cfg_.alloc.refresh_rounds > 0 ? cfg_.alloc.refresh_rounds + 1
                                             : 0);
  std::uint64_t last_updates = organic();
  int stable = 0;
  while (events_.now() < horizon) {
    events_.run_until(events_.now() +
                      cfg_.iteration_period_us * kMicrosecond);
    const std::uint64_t now_updates = organic();
    // Quiet counters alone are not convergence: after a fault (service
    // restart, reset storm) the service is silent precisely because the
    // flow set has not been rebuilt yet -- require it whole first.
    const bool plane_whole =
        seen_count_ == total_flows_ &&
        alloc_.num_active_flowlets() == total_flows_;
    if (plane_whole && now_updates == last_updates) {
      if (++stable >= need) {
        out.converged = true;
        break;
      }
    } else {
      stable = 0;
    }
    last_updates = now_updates;
  }
  const net::ServiceStats st = svc_->stats();
  out.rounds = st.iterations;
  out.updates_sent = st.updates_sent;
  out.virtual_us = events_.now() / kMicrosecond;
  out.events_processed = events_.processed();
  out.trajectory_hash = hash_;
  out.agent_polls = agent_polls_;
  for (const auto& a : agents_) {
    out.updates_received += a->stats().updates_received;
  }
  return out;
}

}  // namespace ft::sim
