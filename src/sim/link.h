// A unidirectional link: queue discipline + serialization at the link
// rate + propagation delay. The link is the DropSink for its queue and
// owns all drop accounting. Arrivals ride the event queue's lane for the
// propagation delay, so packets in flight cost no heap operation.
#pragma once

#include <functional>
#include <memory>

#include "common/ids.h"
#include "sim/event_queue.h"
#include "sim/packet.h"
#include "sim/queue.h"

namespace ft::sim {

class Link : public EventHandler, public DropSink {
 public:
  struct Stats {
    std::uint64_t tx_packets = 0;
    std::int64_t tx_bytes = 0;
    std::uint64_t drops = 0;
    std::int64_t dropped_bytes = 0;
  };

  // `deliver` is invoked when a packet finishes serialization plus
  // propagation; `on_dropped` (optional) observes drops for tracing.
  Link(EventQueue& events, LinkId id, double capacity_bps, Time prop_delay,
       std::unique_ptr<QueueDisc> queue, PacketPool& pool,
       std::function<void(Packet*)> deliver);

  void set_drop_observer(std::function<void(LinkId, const Packet*)> obs) {
    drop_observer_ = std::move(obs);
  }

  // Hands a packet to the link (enqueue; starts transmitting if idle).
  void send(Packet* p);

  [[nodiscard]] LinkId id() const { return id_; }
  [[nodiscard]] double capacity_bps() const { return capacity_bps_; }
  [[nodiscard]] Time prop_delay() const { return prop_delay_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] const QueueDisc& queue() const { return *queue_; }

  // Bytes queued (excluding the packet in serialization): used by the
  // queue-delay sampler.
  [[nodiscard]] std::int64_t queued_bytes() const {
    return queue_->byte_length();
  }
  // Queuing delay a newly arriving packet would experience.
  [[nodiscard]] Time queue_delay() const {
    return tx_time(queue_->byte_length(), capacity_bps_);
  }

  // EventHandler.
  void on_event(std::uint32_t tag, std::uint64_t arg) override;
  // DropSink.
  void on_drop(Packet* p) override;

 private:
  static constexpr std::uint32_t kTxDone = 1;
  static constexpr std::uint32_t kArrive = 2;

  void start_tx();

  EventQueue& events_;
  EventQueue::Lane& arrivals_;
  LinkId id_;
  double capacity_bps_;
  Time prop_delay_;
  std::unique_ptr<QueueDisc> queue_;
  PacketPool& pool_;
  std::function<void(Packet*)> deliver_;
  std::function<void(LinkId, const Packet*)> drop_observer_;
  bool busy_ = false;
  Stats stats_;
};

}  // namespace ft::sim
