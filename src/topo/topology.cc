#include "topo/topology.h"

namespace ft::topo {

NodeId Topology::add_node(NodeType type, std::int32_t rack) {
  const NodeId id(static_cast<std::uint32_t>(nodes_.size()));
  nodes_.push_back(Node{id, type, rack});
  out_.emplace_back();
  return id;
}

LinkId Topology::add_link(NodeId src, NodeId dst, double capacity_bps,
                          Time delay) {
  FT_CHECK(src.value() < nodes_.size());
  FT_CHECK(dst.value() < nodes_.size());
  FT_CHECK(src != dst);
  FT_CHECK(capacity_bps > 0.0);
  FT_CHECK(delay >= 0);
  const LinkId id(static_cast<std::uint32_t>(links_.size()));
  links_.push_back(Link{id, src, dst, capacity_bps, delay});
  out_[src.value()].push_back(id);
  return id;
}

std::vector<double> Topology::capacities() const {
  std::vector<double> caps;
  caps.reserve(links_.size());
  for (const Link& l : links_) caps.push_back(l.capacity_bps);
  return caps;
}

LinkId Topology::find_link(NodeId src, NodeId dst) const {
  for (LinkId l : out_links(src)) {
    if (links_[l.value()].dst == dst) return l;
  }
  return LinkId();
}

}  // namespace ft::topo
