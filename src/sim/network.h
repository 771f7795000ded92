// The simulated network: one Link per topology link, source-routed
// forwarding, and host ingress/egress processing delays (§6.2: servers
// add 2 us).
//
// Transport agents inject packets with a stamped path via `send`; the
// network delivers them to the registered delivery handler after the
// path's serialization, propagation, queueing and the two host delays.
// The delivery handler (the transport layer's dispatcher) owns the packet
// from that point.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "sim/event_queue.h"
#include "sim/link.h"
#include "sim/packet.h"
#include "topo/clos.h"

namespace ft::sim {

class Network : public EventHandler {
 public:
  // `queue_factory` builds each link's queue discipline (passed the link
  // capacity so thresholds can scale).
  Network(EventQueue& events, PacketPool& pool,
          const topo::ClosTopology& clos, const QueueFactory& queue_factory);

  void set_delivery_handler(std::function<void(Packet*)> handler) {
    deliver_ = std::move(handler);
  }
  void set_drop_observer(std::function<void(LinkId, const Packet*)> obs);
  // Observes every packet at injection time (the sending host's NIC),
  // before any network delay -- the hook a flowlet detection tap uses.
  void set_tx_observer(std::function<void(const Packet&)> obs) {
    tx_observer_ = std::move(obs);
  }

  // Injects a packet at its source host. The packet's path must be set;
  // host egress delay applies before it reaches the first link.
  void send(Packet* p);

  [[nodiscard]] Link& link(LinkId id) {
    return *links_[id.value()];
  }
  [[nodiscard]] const Link& link(LinkId id) const {
    return *links_[id.value()];
  }
  [[nodiscard]] std::size_t num_links() const { return links_.size(); }
  [[nodiscard]] const topo::ClosTopology& clos() const { return clos_; }
  [[nodiscard]] EventQueue& events() { return events_; }
  [[nodiscard]] PacketPool& pool() { return pool_; }

  // Total bytes dropped across all links.
  [[nodiscard]] std::int64_t total_dropped_bytes() const;
  [[nodiscard]] std::int64_t total_tx_bytes() const;

  void on_event(std::uint32_t tag, std::uint64_t arg) override;

 private:
  static constexpr std::uint32_t kHostEgress = 1;
  static constexpr std::uint32_t kHostIngress = 2;

  void forward(Packet* p);  // called when a link delivers a packet

  EventQueue& events_;
  PacketPool& pool_;
  const topo::ClosTopology& clos_;
  EventQueue::Lane& host_lane_;  // host egress and ingress delay
  std::vector<std::unique_ptr<Link>> links_;
  std::function<void(Packet*)> deliver_;
  std::function<void(const Packet&)> tx_observer_;
};

}  // namespace ft::sim
