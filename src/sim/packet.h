// Simulated packets and the packet pool.
//
// One packet struct serves every transport (fields unused by a scheme stay
// zero) -- the simulator moves pointers, never copies. Packets are pool-
// allocated and recycled; PacketPool counts the packets in use
// (`outstanding()`) but checks nothing at destruction, since
// run_experiment returns with packets still in flight. The leak check is
// TcpEdgeTest.NoPacketLeaksAfterQuiescence, which drains two flows and
// expects zero outstanding.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/ids.h"
#include "common/time.h"
#include "common/wire.h"

namespace ft::sim {

enum class PacketKind : std::uint8_t {
  kData = 0,
  kAck = 1,
};

struct Packet {
  // Identity / routing (source-routed: hop indexes into path).
  std::uint32_t flow_id = 0;
  std::int32_t src_host = -1;
  std::int32_t dst_host = -1;
  std::array<LinkId, 8> path{};
  std::uint8_t path_len = 0;
  std::uint8_t hop = 0;
  PacketKind kind = PacketKind::kData;

  // Sizes.
  std::int64_t payload = 0;     // transport payload bytes
  std::int64_t wire_bytes = 0;  // total bytes on the wire

  // Reliable stream fields.
  std::int64_t seq = 0;      // first payload byte offset
  std::int64_t ack_seq = 0;  // cumulative ack (receiver -> sender)
  std::int64_t sack_seq = -1;  // exact segment being acked (-1 = none)
  bool fin = false;

  // ECN (DCTCP).
  bool ecn_capable = false;
  bool ecn_marked = false;
  bool ecn_echo = false;  // on ACKs

  // pFabric: remaining flow bytes (lower = higher priority).
  std::int64_t remaining = 0;

  // XCP congestion header.
  double xcp_cwnd_bytes = 0.0;
  double xcp_rtt_sec = 0.0;
  double xcp_feedback_bytes = 0.0;  // demand, decremented by routers

  // Tracing.
  Time sent_at = 0;    // transport transmission time (RTT estimation)
  Time enq_at = 0;     // last queue-entry time (CoDel sojourn, delay traces)
  // Ground-truth flowlet boundary carried by replayed workload traces,
  // so a host-NIC detection tap can be scored in-simulation.
  bool truth_burst_start = false;

  void set_path(const LinkId* links, std::size_t n) {
    FT_CHECK(n <= path.size());
    for (std::size_t i = 0; i < n; ++i) path[i] = links[i];
    path_len = static_cast<std::uint8_t>(n);
    hop = 0;
  }

  [[nodiscard]] bool at_last_hop() const { return hop >= path_len; }

  // Recomputes wire occupancy from the payload (TCP/IP + Ethernet).
  void finalize_size() { wire_bytes = wire_bytes_tcp(payload); }
};

class PacketPool {
 public:
  PacketPool() = default;
  ~PacketPool();

  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;

  [[nodiscard]] Packet* alloc();
  void free(Packet* p);

  [[nodiscard]] std::size_t outstanding() const { return outstanding_; }

 private:
  std::vector<Packet*> free_list_;
  std::vector<Packet*> all_;
  std::size_t outstanding_ = 0;
};

}  // namespace ft::sim
