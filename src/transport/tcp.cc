#include "transport/tcp.h"

#include <algorithm>

namespace ft::transport {

TcpFlow::TcpFlow(FlowRegistry& reg, std::int32_t src_host,
                 std::int32_t dst_host, const topo::Path& fwd,
                 const topo::Path& rev, TcpConfig cfg)
    : reg_(reg),
      net_(reg.net()),
      src_host_(src_host),
      dst_host_(dst_host),
      fwd_(fwd),
      rev_(rev),
      cfg_(cfg),
      rto_timer_(net_.events(), this, kRtoTimer) {
  flow_id_ = reg_.add(this);
  const double iw = cfg_.fixed_window_pkts > 0 ? cfg_.fixed_window_pkts
                                               : cfg_.init_cwnd_pkts;
  cwnd_ = iw * static_cast<double>(cfg_.mss);
  ssthresh_ = 1e18;
  rto_ = cfg_.min_rto;
}

void TcpFlow::app_send(std::int64_t bytes) {
  FT_CHECK(bytes > 0);
  FT_CHECK(!close_requested_);
  app_bytes_ += bytes;
  try_send();
}

void TcpFlow::app_close() { close_requested_ = true; }

void TcpFlow::app_abort() {
  if (complete_) return;
  app_bytes_ = std::max(snd_nxt_, snd_una_);
  close_requested_ = true;
  if (snd_una_ >= app_bytes_) {
    // Nothing in flight: complete immediately.
    complete_ = true;
    rto_timer_.cancel();
    if (on_complete) on_complete();
  }
}

void TcpFlow::set_pacing_rate(double rate_bps) {
  pace_rate_bps_ = rate_bps;
  if (rate_bps > 0.0) {
    // Paced mode: the window is opened fully (the allocator's rates are
    // trusted); transmission timing comes from the pacing timer alone.
    cwnd_ = 1e18;
    if (!pace_timer_pending_) try_send();
  }
}

void TcpFlow::try_send() {
  if (complete_) return;
  if (pace_rate_bps_ > 0.0) {
    // One segment per pacing tick.
    if (pace_timer_pending_) return;
    if (snd_nxt_ >= stream_end()) return;
    const std::int64_t payload =
        std::min(cfg_.mss, stream_end() - snd_nxt_);
    send_segment(snd_nxt_, false);
    snd_nxt_ += payload;
    const Time gap =
        tx_time(wire_bytes_tcp(payload), pace_rate_bps_);
    pace_timer_pending_ = true;
    events().schedule(events().now() + gap, this, kPaceTimer,
                      ++pace_gen_);
    return;
  }
  while (snd_nxt_ < stream_end() &&
         flight() + cfg_.mss <= static_cast<std::int64_t>(cwnd_)) {
    const std::int64_t payload =
        std::min(cfg_.mss, stream_end() - snd_nxt_);
    send_segment(snd_nxt_, false);
    snd_nxt_ += payload;
  }
}

void TcpFlow::send_segment(std::int64_t seq, bool is_retx) {
  sim::Packet* p = net_.pool().alloc();
  p->flow_id = flow_id_;
  p->src_host = src_host_;
  p->dst_host = dst_host_;
  p->kind = sim::PacketKind::kData;
  p->seq = seq;
  p->payload = std::min(cfg_.mss, stream_end() - seq);
  FT_CHECK(p->payload > 0);
  p->fin = close_requested_ && seq + p->payload == stream_end();
  p->ecn_capable = cfg_.ecn_capable;
  p->sent_at = events().now();
  p->set_path(fwd_.begin(), fwd_.size());
  p->finalize_size();
  stamp_data(*p);
  if (is_retx) {
    ++retx_count_;
  } else if (timed_seq_ < 0) {
    // Time one segment at a time (Karn's algorithm).
    timed_seq_ = seq;
    timed_at_ = events().now();
  }
  if (!rto_timer_.armed()) rto_timer_.arm(events().now() + rto_);
  net_.send(p);
}

void TcpFlow::stamp_data(sim::Packet&) {}

void TcpFlow::stamp_ack(sim::Packet&, const sim::Packet&) {}

void TcpFlow::on_packet(sim::Packet* p) {
  if (p->kind == sim::PacketKind::kData) {
    handle_data(p);
  } else {
    handle_ack(p);
  }
}

void TcpFlow::handle_data(sim::Packet* p) {
  // Receiver role.
  const std::int64_t start = p->seq;
  const std::int64_t end = p->seq + p->payload;
  std::int64_t newly = 0;
  if (end > rcv_nxt_) {
    if (start <= rcv_nxt_) {
      std::int64_t adv = end;
      // Merge any out-of-order segments that are now contiguous.
      auto it = ooo_.begin();
      while (it != ooo_.end() && it->first <= adv) {
        adv = std::max(adv, it->second);
        it = ooo_.erase(it);
      }
      newly = adv - rcv_nxt_;
      rcv_nxt_ = adv;
    } else {
      // Out of order: remember the interval.
      auto [it, inserted] = ooo_.emplace(start, end);
      if (!inserted) it->second = std::max(it->second, end);
    }
  }
  // Per-packet ACK.
  sim::Packet* ack = net_.pool().alloc();
  ack->flow_id = flow_id_;
  ack->src_host = dst_host_;
  ack->dst_host = src_host_;
  ack->kind = sim::PacketKind::kAck;
  ack->payload = 0;
  ack->ack_seq = rcv_nxt_;
  ack->sack_seq = p->seq;
  ack->ecn_echo = p->ecn_marked;
  ack->sent_at = p->sent_at;  // echo for RTT at the sender
  ack->set_path(rev_.begin(), rev_.size());
  ack->finalize_size();
  stamp_ack(*ack, *p);
  net_.send(ack);

  if (newly > 0 && on_delivered) on_delivered(newly);
  net_.pool().free(p);
}

void TcpFlow::handle_ack(sim::Packet* p) {
  // Sender role.
  if (complete_) {  // straggler ACKs after completion
    net_.pool().free(p);
    return;
  }
  const std::int64_t acked = p->ack_seq - snd_una_;
  on_ack_hook(*p, std::max<std::int64_t>(acked, 0));

  if (acked > 0) {
    snd_una_ = p->ack_seq;
    dupacks_ = 0;
    if (on_acked_bytes) on_acked_bytes(acked, events().now());
    // RTT sample.
    if (timed_seq_ >= 0 && snd_una_ > timed_seq_) {
      const Time sample = events().now() - timed_at_;
      if (srtt_ == 0) {
        srtt_ = sample;
        rttvar_ = sample / 2;
      } else {
        const Time err =
            sample > srtt_ ? sample - srtt_ : srtt_ - sample;
        rttvar_ = (3 * rttvar_ + err) / 4;
        srtt_ = (7 * srtt_ + sample) / 8;
      }
      rto_ = std::clamp(srtt_ + 4 * rttvar_, cfg_.min_rto, cfg_.max_rto);
      timed_seq_ = -1;
    }
    if (in_recovery_) {
      if (snd_una_ >= recover_) {
        in_recovery_ = false;
        cwnd_ = ssthresh_;
      } else {
        // Partial ACK (RFC 6582): deflate the window by the amount
        // acked, re-inflate by one MSS, and retransmit the next hole.
        // Without the deflation, burst losses leave the window
        // inflating one MSS per duplicate ACK forever.
        cwnd_ = std::max(cwnd_ - static_cast<double>(acked) +
                             static_cast<double>(cfg_.mss),
                         2.0 * static_cast<double>(cfg_.mss));
        send_segment(snd_una_, true);
      }
    } else {
      ca_increase(acked);
    }
    // Fresh RTO for remaining flight.
    if (flight() > 0 || snd_nxt_ < stream_end()) {
      rto_timer_.arm(events().now() + rto_);
    } else {
      rto_timer_.cancel();
    }

    if (snd_una_ >= stream_end() && close_requested_ && !complete_) {
      complete_ = true;
      rto_timer_.cancel();
      if (on_complete) on_complete();
      net_.pool().free(p);
      return;
    }
  } else if (flight() > 0) {
    ++dupacks_;
    if (dupacks_ == 3 && !in_recovery_) {
      on_dupacks();
    } else if (in_recovery_) {
      // Window inflation per extra dupack, capped at ssthresh plus the
      // data outstanding when recovery began: new-data injection during
      // a burst-loss recovery must stay bounded, otherwise every
      // injected packet re-fills the queue, creates a fresh hole, and
      // recovery never terminates.
      const double cap =
          ssthresh_ + static_cast<double>(recover_ - snd_una_);
      if (cwnd_ + static_cast<double>(cfg_.mss) <= cap) {
        cwnd_ += cfg_.mss;
      }
    }
  }
  net_.pool().free(p);
  try_send();
}

void TcpFlow::on_dupacks() { enter_recovery(); }

void TcpFlow::enter_recovery() {
  in_recovery_ = true;
  recover_ = snd_nxt_;
  on_loss_event(/*timeout=*/false);
  send_segment(snd_una_, true);
}

void TcpFlow::ca_increase(std::int64_t acked) {
  if (cfg_.fixed_window_pkts > 0) return;
  if (cwnd_ < ssthresh_) {
    cwnd_ += static_cast<double>(acked);  // slow start
  } else {
    cwnd_ += static_cast<double>(cfg_.mss) * static_cast<double>(acked) /
             cwnd_;  // ~1 MSS per RTT
  }
}

void TcpFlow::on_loss_event(bool timeout) {
  if (cfg_.fixed_window_pkts > 0) return;  // pFabric-style fixed window
  if (timeout) {
    ssthresh_ = std::max<double>(static_cast<double>(flight()) / 2,
                                 2.0 * static_cast<double>(cfg_.mss));
    cwnd_ = static_cast<double>(cfg_.mss);
  } else {
    ssthresh_ = std::max<double>(cwnd_ / 2,
                                 2.0 * static_cast<double>(cfg_.mss));
    cwnd_ = ssthresh_ + 3.0 * static_cast<double>(cfg_.mss);
  }
}

void TcpFlow::on_ack_hook(const sim::Packet&, std::int64_t) {}

void TcpFlow::on_rto() {
  // Go-back-N: rewind to the first unacked byte and retransmit one
  // segment; try_send refills the window from there.
  snd_nxt_ = snd_una_;
  send_segment(snd_una_, true);
  snd_nxt_ = snd_una_ + std::min(cfg_.mss, stream_end() - snd_una_);
}

void TcpFlow::on_event(std::uint32_t tag, std::uint64_t arg) {
  switch (tag) {
    case kRtoTimer: {
      if (flight() <= 0) return;
      ++timeout_count_;
      on_loss_event(/*timeout=*/true);
      in_recovery_ = false;
      dupacks_ = 0;
      rto_ = std::min(rto_ * 2, cfg_.max_rto);  // exponential backoff
      timed_seq_ = -1;
      on_rto();
      rto_timer_.arm(events().now() + rto_);
      try_send();
      break;
    }
    case kPaceTimer: {
      if (arg != pace_gen_) return;
      pace_timer_pending_ = false;
      try_send();
      break;
    }
    default:
      FT_CHECK(false);
  }
}

}  // namespace ft::transport
