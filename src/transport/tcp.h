// TCP NewReno over the simulator: slow start, congestion avoidance, fast
// retransmit / fast recovery, RTO with exponential backoff and
// configurable min/max (the paper's control connections use a 20 us
// minRTO / 30 us maxRTO), per-packet ACKs carrying an exact-segment echo
// (sack_seq) and ECN echo.
//
// The same class carries sized flows (app_send + app_close -> completion
// callback) and byte streams (control channels); subclasses override the
// congestion-control hooks to implement Cubic, DCTCP, pFabric, XCP and
// Flowtune's paced mode.
#pragma once

#include <cstdint>
#include <functional>
#include <map>

#include "common/wire.h"
#include "sim/event_queue.h"
#include "sim/network.h"
#include "topo/path.h"
#include "transport/flow.h"

namespace ft::transport {

struct TcpConfig {
  std::int64_t mss = kMss;
  double init_cwnd_pkts = 10.0;
  Time min_rto = 2 * kMillisecond;
  Time max_rto = 100 * kMillisecond;
  bool ecn_capable = false;
  // pFabric-style fixed window: if > 0, cwnd is pinned to this many
  // packets and loss events do not reduce it.
  double fixed_window_pkts = 0.0;
};

class TcpFlow : public Flow, public sim::EventHandler {
 public:
  // `fwd` is the data path (src -> dst), `rev` the ACK path.
  TcpFlow(FlowRegistry& reg, std::int32_t src_host, std::int32_t dst_host,
          const topo::Path& fwd, const topo::Path& rev, TcpConfig cfg);
  ~TcpFlow() override = default;

  [[nodiscard]] std::uint32_t flow_id() const { return flow_id_; }
  [[nodiscard]] std::int32_t src_host() const { return src_host_; }
  [[nodiscard]] std::int32_t dst_host() const { return dst_host_; }

  // --- Application interface (sender side) ---
  void app_send(std::int64_t bytes);  // append bytes to the stream
  void app_close();                   // complete after all queued bytes
  // Truncates the stream at the bytes already sent and closes: used to
  // stop long-running flows (Figure 4's staircase senders).
  void app_abort();
  [[nodiscard]] std::int64_t app_bytes() const { return app_bytes_; }
  [[nodiscard]] bool complete() const { return complete_; }

  // Invoked once when every byte (and the close marker) has been acked.
  std::function<void()> on_complete;
  // Receiver side: called with counts of newly in-order bytes.
  std::function<void(std::int64_t)> on_delivered;
  // Observer for every data byte acked (throughput traces).
  std::function<void(std::int64_t, Time)> on_acked_bytes;

  // --- Flowtune pacing ---
  // Rate-paced mode: the window opens fully and segments leave at
  // `rate_bps` (paper §6.2 "opens the flow's TCP window and paces
  // packets"). 0 restores window mode.
  void set_pacing_rate(double rate_bps);
  [[nodiscard]] double pacing_rate() const { return pace_rate_bps_; }

  [[nodiscard]] double cwnd_bytes() const { return cwnd_; }
  [[nodiscard]] Time srtt() const { return srtt_; }
  [[nodiscard]] std::uint64_t retransmits() const { return retx_count_; }
  [[nodiscard]] std::uint64_t timeouts() const { return timeout_count_; }

  void on_packet(sim::Packet* p) override;
  void on_event(std::uint32_t tag, std::uint64_t arg) override;

 protected:
  // --- Congestion-control hooks (NewReno defaults) ---
  // Window growth on newly acked data.
  virtual void ca_increase(std::int64_t acked);
  // Multiplicative decrease on a loss event; `timeout` distinguishes RTO.
  virtual void on_loss_event(bool timeout);
  // Per-ACK observation hook (ECN echoes, XCP feedback...).
  virtual void on_ack_hook(const sim::Packet& ack, std::int64_t acked);
  // Stamp outgoing data packets (pFabric priority, XCP header).
  virtual void stamp_data(sim::Packet& p);
  // Stamp outgoing ACKs (receiver side).
  virtual void stamp_ack(sim::Packet& ack, const sim::Packet& data);
  // Retransmission strategy on RTO expiry (default: go-back-N).
  virtual void on_rto();
  // Reaction to the third duplicate ACK (default: NewReno fast
  // retransmit + fast recovery).
  virtual void on_dupacks();

  void try_send();
  void send_segment(std::int64_t seq, bool is_retx);
  void enter_recovery();
  void handle_ack(sim::Packet* p);
  void handle_data(sim::Packet* p);
  [[nodiscard]] std::int64_t flight() const { return snd_nxt_ - snd_una_; }
  [[nodiscard]] std::int64_t stream_end() const { return app_bytes_; }
  [[nodiscard]] sim::EventQueue& events() { return net_.events(); }

  static constexpr std::uint32_t kRtoTimer = 1;
  static constexpr std::uint32_t kPaceTimer = 2;

  FlowRegistry& reg_;
  sim::Network& net_;
  std::uint32_t flow_id_;
  std::int32_t src_host_;
  std::int32_t dst_host_;
  topo::Path fwd_;
  topo::Path rev_;
  TcpConfig cfg_;

  // Sender.
  std::int64_t app_bytes_ = 0;
  bool close_requested_ = false;
  bool complete_ = false;
  std::int64_t snd_una_ = 0;
  std::int64_t snd_nxt_ = 0;
  double cwnd_ = 0.0;
  double ssthresh_ = 0.0;
  std::int32_t dupacks_ = 0;
  bool in_recovery_ = false;
  std::int64_t recover_ = 0;
  std::uint64_t retx_count_ = 0;
  std::uint64_t timeout_count_ = 0;

  // RTT estimation (RFC 6298).
  Time srtt_ = 0;
  Time rttvar_ = 0;
  Time rto_;
  std::int64_t timed_seq_ = -1;
  Time timed_at_ = 0;
  sim::LazyTimer rto_timer_;

  // Pacing.
  double pace_rate_bps_ = 0.0;
  bool pace_timer_pending_ = false;
  std::uint64_t pace_gen_ = 0;

  // Receiver.
  std::int64_t rcv_nxt_ = 0;
  std::map<std::int64_t, std::int64_t> ooo_;  // start -> end
};

}  // namespace ft::transport
