#include "transport/control.h"

#include "common/ratecode.h"

namespace ft::transport {

ControlChannel::ControlChannel(std::unique_ptr<TcpFlow> flow)
    : flow_(std::move(flow)) {
  flow_->on_delivered = [this](std::int64_t n) { deliver(n); };
}

void ControlChannel::send_start(const core::FlowletStartMsg& m) {
  Pending p;
  p.type = 0;
  p.start = m;
  p.bytes = core::kFlowletStartBytes;
  fifo_.push_back(p);
  payload_sent_ += p.bytes;
  flow_->app_send(p.bytes);
}

void ControlChannel::send_end(const core::FlowletEndMsg& m) {
  Pending p;
  p.type = 1;
  p.end = m;
  p.bytes = core::kFlowletEndBytes;
  fifo_.push_back(p);
  payload_sent_ += p.bytes;
  flow_->app_send(p.bytes);
}

void ControlChannel::send_update(const core::RateUpdateMsg& m) {
  Pending p;
  p.type = 2;
  p.update = m;
  p.bytes = core::kRateUpdateBytes;
  fifo_.push_back(p);
  payload_sent_ += p.bytes;
  flow_->app_send(p.bytes);
}

void ControlChannel::deliver(std::int64_t bytes) {
  delivered_ += bytes;
  // Consume every message whose final byte has now arrived in order
  // ("updates ... are only applied when the corresponding bytes arrive,
  // as in ns2's TcpApp").
  while (!fifo_.empty() && consumed_ + fifo_.front().bytes <= delivered_) {
    const Pending p = fifo_.front();
    fifo_.pop_front();
    consumed_ += p.bytes;
    switch (p.type) {
      case 0:
        if (on_start) on_start(p.start);
        break;
      case 1:
        if (on_end) on_end(p.end);
        break;
      case 2:
        if (on_update) on_update(p.update);
        break;
      default:
        FT_CHECK(false);
    }
  }
}

AllocatorApp::AllocatorApp(FlowRegistry& reg,
                           const topo::ClosTopology& clos,
                           AllocatorAppConfig cfg)
    : reg_(reg),
      clos_(clos),
      cfg_(cfg),
      alloc_(clos.graph().capacities(), cfg.allocator) {
  FT_CHECK(clos.config().with_allocator);
  const std::int32_t n = clos.num_hosts();
  up_.reserve(static_cast<std::size_t>(n));
  down_.reserve(static_cast<std::size_t>(n));
  for (std::int32_t h = 0; h < n; ++h) {
    const auto hash = static_cast<std::uint64_t>(h);
    // Host -> allocator (notifications).
    auto up_flow = std::make_unique<TcpFlow>(
        reg_, h, /*dst=*/-1, clos.to_allocator_path(clos.host(h), hash),
        clos.from_allocator_path(clos.host(h), hash), cfg_.control_tcp);
    up_.push_back(std::make_unique<ControlChannel>(std::move(up_flow)));
    up_.back()->on_start =
        [this](const core::FlowletStartMsg& m) { handle_start(m); };
    up_.back()->on_end =
        [this](const core::FlowletEndMsg& m) { handle_end(m); };
    // Allocator -> host (rate updates).
    auto down_flow = std::make_unique<TcpFlow>(
        reg_, /*src=*/-1, h, clos.from_allocator_path(clos.host(h), hash),
        clos.to_allocator_path(clos.host(h), hash), cfg_.control_tcp);
    down_.push_back(
        std::make_unique<ControlChannel>(std::move(down_flow)));
    down_.back()->on_update = [this, h](const core::RateUpdateMsg& m) {
      if (on_rate_update) on_rate_update(h, m);
    };
  }
}

void AllocatorApp::start() {
  reg_.net().events().schedule(
      reg_.net().events().now() + cfg_.iteration_period, this, 0, 0);
}

void AllocatorApp::notify_start(std::int32_t src_host,
                                const core::FlowletStartMsg& m) {
  up_[static_cast<std::size_t>(src_host)]->send_start(m);
}

void AllocatorApp::notify_end(std::int32_t src_host,
                              const core::FlowletEndMsg& m) {
  up_[static_cast<std::size_t>(src_host)]->send_end(m);
}

void AllocatorApp::handle_start(const core::FlowletStartMsg& m) {
  // The allocator derives the flow's path exactly as the endpoint did:
  // ECMP keyed by the flow key (§7: the allocator knows flow routes).
  const auto path = clos_.host_path(clos_.host(m.src_host),
                                    clos_.host(m.dst_host), m.flow_key);
  std::vector<LinkId> links(path.begin(), path.end());
  // Weighted proportional fairness: the notification carries the flow's
  // weight in milli-units relative to the default utility weight.
  core::Utility util = cfg_.allocator.default_util;
  if (m.weight_milli != 1000 && m.weight_milli != 0) {
    util.weight *= static_cast<double>(m.weight_milli) / 1000.0;
  }
  if (alloc_.flowlet_start(m.flow_key, links, util)) {
    key_src_.emplace(m.flow_key, m.src_host);
  }
}

void AllocatorApp::handle_end(const core::FlowletEndMsg& m) {
  alloc_.flowlet_end(m.flow_key);
  key_src_.erase(m.flow_key);
}

void AllocatorApp::run_iteration() {
  scratch_updates_.clear();
  alloc_.run_iteration(scratch_updates_);
  ++iterations_;
  for (const core::RateUpdate& u : scratch_updates_) {
    const auto it = key_src_.find(static_cast<std::uint32_t>(u.key));
    if (it == key_src_.end()) continue;  // flow ended meanwhile
    core::RateUpdateMsg msg;
    msg.flow_key = static_cast<std::uint32_t>(u.key);
    msg.rate_code = u.rate_code;
    down_[static_cast<std::size_t>(it->second)]->send_update(msg);
  }
}

void AllocatorApp::on_event(std::uint32_t, std::uint64_t) {
  if (stopped_) return;
  run_iteration();
  reg_.net().events().schedule(
      reg_.net().events().now() + cfg_.iteration_period, this, 0, 0);
}

}  // namespace ft::transport
