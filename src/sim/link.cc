#include "sim/link.h"

namespace ft::sim {

Link::Link(EventQueue& events, LinkId id, double capacity_bps,
           Time prop_delay, std::unique_ptr<QueueDisc> queue,
           PacketPool& pool, std::function<void(Packet*)> deliver)
    : events_(events),
      arrivals_(events.lane(prop_delay)),
      id_(id),
      capacity_bps_(capacity_bps),
      prop_delay_(prop_delay),
      queue_(std::move(queue)),
      pool_(pool),
      deliver_(std::move(deliver)) {
  FT_CHECK(capacity_bps_ > 0.0);
  queue_->set_drop_sink(this);
}

void Link::send(Packet* p) {
  queue_->enqueue(p, events_.now());
  if (!busy_) start_tx();
}

void Link::start_tx() {
  Packet* p = queue_->dequeue(events_.now());
  if (p == nullptr) {
    busy_ = false;
    return;
  }
  busy_ = true;
  events_.schedule(events_.now() + tx_time(p->wire_bytes, capacity_bps_),
                   this, kTxDone, reinterpret_cast<std::uint64_t>(p));
}

void Link::on_event(std::uint32_t tag, std::uint64_t arg) {
  auto* p = reinterpret_cast<Packet*>(arg);
  switch (tag) {
    case kTxDone:
      stats_.tx_packets++;
      stats_.tx_bytes += p->wire_bytes;
      // Propagation happens in parallel with the next serialization.
      arrivals_.schedule(this, kArrive, arg);
      start_tx();
      break;
    case kArrive:
      deliver_(p);
      break;
    default:
      FT_CHECK(false);
  }
}

void Link::on_drop(Packet* p) {
  ++stats_.drops;
  stats_.dropped_bytes += p->wire_bytes;
  if (drop_observer_) drop_observer_(id_, p);
  pool_.free(p);
}

}  // namespace ft::sim
