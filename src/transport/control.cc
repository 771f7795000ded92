#include "transport/control.h"

#include <algorithm>
#include <limits>

namespace ft::transport {
namespace {

// The allocator <-> host connections' TCP: 20 us minRTO, 30 us maxRTO.
TcpConfig control_tcp() {
  TcpConfig c;
  c.min_rto = 20 * kMicrosecond;
  c.max_rto = 30 * kMicrosecond;
  return c;
}

}  // namespace

TcpCarrier::TcpCarrier(std::unique_ptr<TcpFlow> flow)
    : flow_(std::move(flow)) {
  flow_->on_delivered = [this](std::int64_t n) {
    if (deliver) deliver(n);
  };
}

ControlPlane::ControlPlane(FlowRegistry& reg,
                           const topo::ClosTopology& clos,
                           ControlPlaneConfig cfg)
    : tr_(reg.net().events()),
      loop_(tr_),
      alloc_(clos.graph().capacities(), cfg.allocator) {
  FT_CHECK(clos.config().with_allocator);
  FT_CHECK(cfg.iteration_period > 0 &&
           cfg.iteration_period % kMicrosecond == 0);
  net::ServerConfig scfg;
  scfg.transport = &tr_;
  scfg.tcp_port = 0;
  scfg.iteration_period_us = cfg.iteration_period / kMicrosecond;
  scfg.metrics = cfg.allocator.metrics;
  scfg.epoch = 1;
  service_ =
      std::make_unique<net::AllocatorService>(loop_, alloc_, clos, scfg);

  net::AgentConfig acfg;
  acfg.transport = &tr_;
  const TcpConfig tcp = control_tcp();
  for (std::int32_t h = 0; h < clos.num_hosts(); ++h) {
    const auto hash = static_cast<std::uint64_t>(h);
    const topo::Path to = clos.to_allocator_path(clos.host(h), hash);
    const topo::Path from = clos.from_allocator_path(clos.host(h), hash);
    carriers_.push_back(std::make_unique<TcpCarrier>(
        std::make_unique<TcpFlow>(reg, h, /*dst=*/-1, to, from, tcp)));
    carriers_.push_back(std::make_unique<TcpCarrier>(
        std::make_unique<TcpFlow>(reg, /*src=*/-1, h, from, to, tcp)));
    tr_.set_next_dial_carriers(carriers_[carriers_.size() - 2].get(),
                               carriers_.back().get());
    auto& agent =
        agents_.emplace_back(std::make_unique<net::EndpointAgent>(acfg));
    FT_CHECK(agent->connect_tcp("allocator", service_->tcp_port()));
    agent->set_rate_callback(
        [this](std::uint32_t key, double rate_bps, std::uint16_t) {
          if (on_rate) on_rate(key, rate_bps);
        });
    // Polled as its bytes land, so a rate applies on arrival.
    net::EndpointAgent* a = agent.get();
    loop_.add_fd(a->handle(), net::kEvRead,
                 [a](std::uint32_t) { a->poll(); });
  }
}

void ControlPlane::flowlet_start(std::uint32_t key, std::int32_t src,
                                 std::int32_t dst, std::int64_t size_bytes,
                                 std::uint16_t weight_milli) {
  net::EndpointAgent& a = *agents_[static_cast<std::size_t>(src)];
  a.flowlet_start(key, static_cast<std::uint16_t>(src),
                  static_cast<std::uint16_t>(dst),
                  static_cast<std::uint32_t>(std::min<std::int64_t>(
                      size_bytes, std::numeric_limits<std::uint32_t>::max())),
                  weight_milli);
  a.flush();
}

void ControlPlane::flowlet_end(std::uint32_t key, std::int32_t src) {
  net::EndpointAgent& a = *agents_[static_cast<std::size_t>(src)];
  a.flowlet_end(key);
  a.flush();
}

}  // namespace ft::transport
