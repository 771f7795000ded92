#include "sim/network.h"

namespace ft::sim {

Network::Network(EventQueue& events, PacketPool& pool,
                 const topo::ClosTopology& clos,
                 const QueueFactory& queue_factory)
    : events_(events),
      pool_(pool),
      clos_(clos),
      host_lane_(events.lane(clos.config().host_delay)) {
  links_.reserve(clos.graph().num_links());
  for (const topo::Link& l : clos.graph().links()) {
    links_.push_back(std::make_unique<Link>(
        events_, l.id, l.capacity_bps, l.delay,
        queue_factory(l.capacity_bps), pool_,
        [this](Packet* p) { forward(p); }));
  }
}

void Network::set_drop_observer(
    std::function<void(LinkId, const Packet*)> obs) {
  for (auto& l : links_) l->set_drop_observer(obs);
}

void Network::send(Packet* p) {
  FT_CHECK(p->path_len > 0);
  FT_CHECK(deliver_ != nullptr);
  if (tx_observer_) tx_observer_(*p);
  host_lane_.schedule(this, kHostEgress, reinterpret_cast<std::uint64_t>(p));
}

void Network::forward(Packet* p) {
  ++p->hop;
  if (p->at_last_hop()) {
    // Destination host: ingress processing delay, then the transport.
    host_lane_.schedule(this, kHostIngress,
                        reinterpret_cast<std::uint64_t>(p));
    return;
  }
  links_[p->path[p->hop].value()]->send(p);
}

void Network::on_event(std::uint32_t tag, std::uint64_t arg) {
  auto* p = reinterpret_cast<Packet*>(arg);
  switch (tag) {
    case kHostEgress:
      links_[p->path[0].value()]->send(p);
      break;
    case kHostIngress:
      deliver_(p);
      break;
    default:
      FT_CHECK(false);
  }
}

std::int64_t Network::total_dropped_bytes() const {
  std::int64_t total = 0;
  for (const auto& l : links_) total += l->stats().dropped_bytes;
  return total;
}

std::int64_t Network::total_tx_bytes() const {
  std::int64_t total = 0;
  for (const auto& l : links_) total += l->stats().tx_bytes;
  return total;
}

}  // namespace ft::sim
