// Flowtune's control plane inside the packet simulation (paper §6.2).
//
// The allocator node runs the shipped net::AllocatorService and every
// host runs a shipped net::EndpointAgent. They talk over a
// sim::SimTransport whose streams ride simulated TcpFlows between the
// host and the allocator node: like ns-2's TcpApp, which the paper
// uses, each TcpFlow carries byte *counts* through the data network --
// queueing, drops and retransmission included -- and the frame bytes
// reach the reader when their count arrives in order. The messages are
// the shipped wire format (net/frame.h). Control connections use TCP
// with a 20 us minRTO / 30 us maxRTO.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "core/allocator.h"
#include "net/client.h"
#include "net/server.h"
#include "sim/sim_transport.h"
#include "topo/clos.h"
#include "transport/tcp.h"

namespace ft::transport {

struct ControlPlaneConfig {
  core::AllocatorConfig allocator;
  // Allocation round period; a whole number of microseconds.
  Time iteration_period = 10 * kMicrosecond;
};

// A sim::StreamCarrier over one TcpFlow: each segment becomes app_send
// bytes, and the flow's in-order deliveries are reported back.
class TcpCarrier final : public sim::StreamCarrier {
 public:
  explicit TcpCarrier(std::unique_ptr<TcpFlow> flow);
  void send(std::int64_t bytes) override { flow_->app_send(bytes); }
  [[nodiscard]] TcpFlow& flow() { return *flow_; }

 private:
  std::unique_ptr<TcpFlow> flow_;
};

class ControlPlane {
 public:
  // Creates each host's up and down control TcpFlow (host order, up
  // first) and dials every agent; build it before any data flow. It
  // binds the simulator's clock, so destroy it before the simulator.
  ControlPlane(FlowRegistry& reg, const topo::ClosTopology& clos,
               ControlPlaneConfig cfg);
  ControlPlane(const ControlPlane&) = delete;  // callbacks hold `this`
  ControlPlane& operator=(const ControlPlane&) = delete;

  // Host `src`'s agent notifies the allocator; the message leaves the
  // host now.
  void flowlet_start(std::uint32_t key, std::int32_t src, std::int32_t dst,
                     std::int64_t size_bytes = 0,
                     std::uint16_t weight_milli = 1000);
  void flowlet_end(std::uint32_t key, std::int32_t src);
  // Rates as the source host's agent applies them: (flow key, bit/s).
  std::function<void(std::uint32_t, double)> on_rate;

  // Allocator failure (§2): the service goes away, agents see EOF, and
  // endpoints keep the rates they last applied.
  void stop() { service_.reset(); }

  [[nodiscard]] const core::Allocator& allocator() const { return alloc_; }
  [[nodiscard]] std::uint64_t iterations() const {
    return alloc_.stats().iterations;
  }

 private:
  sim::SimTransport tr_;
  sim::SimLoop loop_;
  std::vector<std::unique_ptr<TcpCarrier>> carriers_;  // per host: up, down
  core::Allocator alloc_;
  std::unique_ptr<net::AllocatorService> service_;
  std::vector<std::unique_ptr<net::EndpointAgent>> agents_;  // per host
};

}  // namespace ft::transport
