// Directed network topology graph: nodes (hosts / switches) and
// unidirectional capacitated links with propagation delay.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/ids.h"
#include "common/time.h"

namespace ft::topo {

enum class NodeType : std::uint8_t { kHost, kTor, kSpine, kAllocator };

struct Node {
  NodeId id;
  NodeType type = NodeType::kHost;
  std::int32_t rack = -1;  // rack index for hosts/ToRs; -1 otherwise
};

struct Link {
  LinkId id;
  NodeId src;
  NodeId dst;
  double capacity_bps = 0.0;
  Time delay = 0;
};

class Topology {
 public:
  NodeId add_node(NodeType type, std::int32_t rack = -1);
  LinkId add_link(NodeId src, NodeId dst, double capacity_bps, Time delay);

  [[nodiscard]] std::size_t num_nodes() const { return nodes_.size(); }
  [[nodiscard]] std::size_t num_links() const { return links_.size(); }

  [[nodiscard]] const Node& node(NodeId id) const {
    FT_CHECK(id.value() < nodes_.size());
    return nodes_[id.value()];
  }
  [[nodiscard]] const Link& link(LinkId id) const {
    FT_CHECK(id.value() < links_.size());
    return links_[id.value()];
  }
  [[nodiscard]] std::span<const Node> nodes() const { return nodes_; }
  [[nodiscard]] std::span<const Link> links() const { return links_; }
  // Every link's capacity, indexed by LinkId: the vector core::Allocator
  // and core::NumProblem are built from.
  [[nodiscard]] std::vector<double> capacities() const;

  // Links whose source is `node`.
  [[nodiscard]] std::span<const LinkId> out_links(NodeId node) const {
    FT_CHECK(node.value() < out_.size());
    return out_[node.value()];
  }

  // First link from src to dst; invalid id if none exists.
  [[nodiscard]] LinkId find_link(NodeId src, NodeId dst) const;

 private:
  std::vector<Node> nodes_;
  std::vector<Link> links_;
  std::vector<std::vector<LinkId>> out_;
};

}  // namespace ft::topo
