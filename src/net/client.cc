#include "net/client.h"

#include <algorithm>
#include <cerrno>
#include <limits>

#include "common/check.h"
#include "common/ratecode.h"
#include "common/time.h"
#include "common/wire.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ft::net {

// Registry handles resolved once at construction (only when a sink is
// configured; the null case costs one pointer check per site).
struct EndpointAgent::Metrics {
  obs::LatencyHisto& first_update_rtt_us;
  obs::LatencyHisto& poll_us;
  obs::LatencyHisto& poll_gap_us;
  obs::Counter& updates_received;
  obs::Gauge& detector_occupancy;
  obs::Gauge& detector_evictions;
  // Fault tolerance: connection losses, successful re-dials, the
  // outage span each re-dial closed, cumulative non-kConnected time,
  // lease expiries and records dropped with a dying connection.
  obs::Counter& disconnects;
  obs::Counter& reconnects;
  obs::LatencyHisto& reconnect_us;
  obs::Counter& degraded_us;
  obs::Counter& lease_expiries;
  obs::Counter& queue_drops_on_close;
  // Allocator epochs: pre-restart records discarded and held rates
  // invalidated on an epoch advance (counted, never silent -- the
  // chaos conservation oracle audits these paths).
  obs::Counter& stale_updates_discarded;
  obs::Counter& stale_heartbeats_discarded;
  obs::Counter& epoch_invalidated_rates;
  // End-to-end span breakdown from completed trace echoes. update_us is
  // the full agent-send -> agent-receive loop on the agent's RAW clock;
  // queue/solve/emit/fanout are the service-side hop deltas; service_us
  // spans shard ingest -> fanout write; wire_us is the residual (wire +
  // epoll queueing, both directions -- same-host runs only).
  obs::LatencyHisto& e2e_update_us;
  obs::LatencyHisto& e2e_queue_us;
  obs::LatencyHisto& e2e_solve_us;
  obs::LatencyHisto& e2e_emit_us;
  obs::LatencyHisto& e2e_fanout_us;
  obs::LatencyHisto& e2e_service_us;
  obs::LatencyHisto& e2e_wire_us;

  explicit Metrics(obs::MetricsRegistry& reg)
      : first_update_rtt_us(reg.histo("agent.first_update_rtt_us")),
        poll_us(reg.histo("agent.poll_us")),
        poll_gap_us(reg.histo("agent.poll_gap_us")),
        updates_received(reg.counter("agent.updates_received")),
        detector_occupancy(reg.gauge("agent.detector_occupancy")),
        detector_evictions(reg.gauge("agent.detector_evictions")),
        disconnects(reg.counter("agent.disconnects")),
        reconnects(reg.counter("agent.reconnects")),
        reconnect_us(reg.histo("agent.reconnect_us")),
        degraded_us(reg.counter("agent.degraded_us")),
        lease_expiries(reg.counter("agent.lease_expiries")),
        queue_drops_on_close(reg.counter("agent.queue_drops_on_close")),
        stale_updates_discarded(
            reg.counter("agent.stale_updates_discarded")),
        stale_heartbeats_discarded(
            reg.counter("agent.stale_heartbeats_discarded")),
        epoch_invalidated_rates(
            reg.counter("agent.epoch_invalidated_rates")),
        e2e_update_us(reg.histo("e2e.update_us")),
        e2e_queue_us(reg.histo("e2e.queue_us")),
        e2e_solve_us(reg.histo("e2e.solve_us")),
        e2e_emit_us(reg.histo("e2e.emit_us")),
        e2e_fanout_us(reg.histo("e2e.fanout_us")),
        e2e_service_us(reg.histo("e2e.service_us")),
        e2e_wire_us(reg.histo("e2e.wire_us")) {}
};

EndpointAgent::EndpointAgent(
    AgentConfig cfg, std::unique_ptr<flowlet::FlowletDetector> detector)
    : cfg_(std::move(cfg)),
      tr_(cfg_.transport != nullptr ? cfg_.transport : &os_transport()),
      clock_(&tr_->clock()),
      epoch_us_(clock_->now_us()),
      detector_(std::move(detector)) {
  if (!detector_ && cfg_.idle_gap_us > 0) {
    // Pre-detector behaviour: one fixed idle gap for every flow.
    flowlet::StaticGapConfig dcfg;
    dcfg.gap = cfg_.idle_gap_us * kMicrosecond;
    dcfg.table_capacity = cfg_.detector_table_capacity;
    detector_ = std::make_unique<flowlet::StaticGapDetector>(dcfg);
  }
  if (detector_) {
    detector_->set_callbacks(
        [this](const flowlet::PacketRecord& p) { detected_start(p); },
        [this](std::uint32_t key, Time) { detected_end(key); });
  }
  if (cfg_.metrics != nullptr) {
    m_ = std::make_unique<Metrics>(*cfg_.metrics);
  }
  // Jitter stream: an explicit seed gives a reproducible backoff
  // schedule (tests); 0 derives one from this agent's address so a
  // fleet sharing a config still spreads its re-dials.
  backoff_rng_.reseed(cfg_.reconnect_seed != 0
                          ? cfg_.reconnect_seed
                          : reinterpret_cast<std::uintptr_t>(this));
}

EndpointAgent::~EndpointAgent() { disconnect(); }

Time EndpointAgent::now_ps() const {
  return static_cast<Time>(clock_->now_us() - epoch_us_) * kMicrosecond;
}

bool EndpointAgent::adopt_socket(int fd) {
  // Transport dials hand back ready nonblocking handles; adoption is
  // just ownership.
  if (fd < 0) return false;
  fd_ = fd;
  return true;
}

// Dials the remembered target. Returns the connected handle or -1;
// never touches agent state, so connect_* and the reconnect path share
// it.
int EndpointAgent::dial_target() const {
  if (target_ == Target::kTcp) {
    return tr_->connect_tcp(target_host_, target_port_);
  }
  if (target_ == Target::kUnix) return tr_->connect_unix(target_path_);
  return -1;
}

bool EndpointAgent::connect_tcp(const std::string& host, int port) {
  FT_CHECK(fd_ < 0);
  target_ = Target::kTcp;
  target_host_ = host;
  target_port_ = port;
  const int fd = dial_target();
  if (fd < 0 || !adopt_socket(fd)) return false;
  became_connected(clock_->now_us());
  return true;
}

bool EndpointAgent::connect_unix(const std::string& path) {
  FT_CHECK(fd_ < 0);
  target_ = Target::kUnix;
  target_path_ = path;
  const int fd = dial_target();
  if (fd < 0 || !adopt_socket(fd)) return false;
  became_connected(clock_->now_us());
  return true;
}

void EndpointAgent::became_connected(std::int64_t now_us) {
  state_ = ConnState::kConnected;
  ++conn_gen_;
  cur_backoff_us_ = 0;
  next_attempt_us_ = 0;
  last_rx_us_ = now_us;
  last_hb_tx_us_ = now_us;
  // Arm the registration-refresh timer: a fresh connection owes the
  // service a full reregister_period before re-replaying (otherwise a
  // first poll on a real clock sees "elapsed since 0" and refreshes
  // flows whose first updates are simply still in flight).
  last_replay_us_ = now_us;
  // The lease is disarmed until the new service advertises one; flows
  // parked in fallback stay there until their fresh update lands.
  lease_deadline_us_ = 0;
}

void EndpointAgent::disconnect() {
  drop_pending_output();
  if (fd_ >= 0) {
    tr_->close(fd_);
    fd_ = -1;
  }
  state_ = ConnState::kDisconnected;
  lease_deadline_us_ = 0;
  degraded_since_us_ = 0;  // deliberate teardown ends any outage clock
}

// Counts then discards everything queued for a connection that will
// never carry it (satellite fix: these drops used to be silent).
void EndpointAgent::drop_pending_output() {
  const std::uint64_t records = writer_.pending_records();
  if (records > 0) {
    stats_.queue_drops_on_close += records;
    if (m_ != nullptr) {
      m_->queue_drops_on_close.add(records);
    }
    writer_.clear();
  }
  outbox_.clear();
  out_off_ = 0;
}

// The socket died under us (peer close, send/recv error, outbox cap,
// peer timeout). Tear it down and either arm the reconnect backoff or
// go terminal, depending on config.
void EndpointAgent::lose_connection(std::int64_t now_us) {
  ++stats_.disconnects;
  if (m_ != nullptr) m_->disconnects.add(1);
  drop_pending_output();
  if (fd_ >= 0) {
    // leak_connection_fds is the chaos suite's slot-recycling mutation:
    // skipping the close leaks the transport slot on every disconnect.
    if (!cfg_.leak_connection_fds) tr_->close(fd_);
    fd_ = -1;
  }
  lease_deadline_us_ = 0;
  if (degraded_since_us_ == 0) degraded_since_us_ = now_us;
  if (cfg_.auto_reconnect && target_ != Target::kNone) {
    state_ = ConnState::kReconnecting;
    disconnected_at_us_ = now_us;
    cur_backoff_us_ = 0;
    // The first attempt is already jittered: N agents losing the same
    // allocator at the same instant must not re-dial in one burst.
    schedule_next_attempt(now_us);
  } else {
    state_ = ConnState::kDisconnected;
  }
}

void EndpointAgent::schedule_next_attempt(std::int64_t now_us) {
  cur_backoff_us_ =
      cur_backoff_us_ == 0
          ? cfg_.reconnect_backoff_min_us
          : std::min(cur_backoff_us_ * 2, cfg_.reconnect_backoff_max_us);
  const std::int64_t half = std::max<std::int64_t>(cur_backoff_us_ / 2, 1);
  last_backoff_us_ =
      half + static_cast<std::int64_t>(
                 backoff_rng_.below(static_cast<std::uint64_t>(half)));
  next_attempt_us_ = now_us + last_backoff_us_;
}

// Re-registers every locally-live flowlet on the fresh connection. The
// agent's flow table is the authoritative replay source: whether the
// old service ended our flows on disconnect or a restarted allocator
// never heard of them, these starts rebuild the exact same set.
void EndpointAgent::replay_flowlets() {
  last_replay_us_ = clock_->now_us();
  for (auto& [key, st] : flows_) {
    writer_.add(core::FlowletStartMsg{key, st.src, st.dst, 0,
                                      st.weight_milli, 0});
    ++stats_.replayed_starts;
    if (m_ != nullptr && st.start_us == 0) {
      // Re-arm the first-update RTT clock: the next update this flow
      // sees is the recovery round trip.
      st.start_us = clock_->now_us();
    }
  }
}

void EndpointAgent::try_reconnect(std::int64_t now_us) {
  if (now_us < next_attempt_us_) return;
  ++stats_.reconnect_attempts;
  const int fd = dial_target();
  if (fd < 0 || !adopt_socket(fd)) {
    schedule_next_attempt(now_us);
    return;
  }
  // Fresh connection: no residue from the dead one may cross it. The
  // parser is rebuilt (mid-frame bytes and a sticky corrupt flag die
  // with it), the writer's open batch and coalescing table were
  // dropped at disconnect, and the outbox is empty.
  parser_ = FrameParser();
  writer_.clear();
  outbox_.clear();
  out_off_ = 0;
  ++stats_.reconnects;
  if (m_ != nullptr) {
    m_->reconnects.add(1);
    m_->reconnect_us.record_signed(now_us - disconnected_at_us_);
  }
  became_connected(now_us);
  note_recovered(now_us);
  replay_flowlets();
  flush();
}

// One wire record carried allocator epoch `e`. Returns false when the
// record predates the newest epoch this agent has evidence of -- the
// caller must drop it (an old allocator's output must never override
// the new one's, TCP ordering notwithstanding: reconnects splice two
// independent streams, and a zombie instance can linger behind a VIP).
// Adopting a NEWER epoch means the allocator restarted; everything the
// old one computed is invalidated into fallback, and if the socket
// never dropped (warm restart behind a proxy: no reconnect, so
// try_reconnect never replayed) the flowlets are re-registered here so
// the new allocator learns a flow set it otherwise never would.
bool EndpointAgent::observe_epoch(std::uint16_t e) {
  if (!cfg_.epoch_filtering) {
    // Mutation-test hook: keep tracking the newest epoch (the oracles
    // need the reference point) but never invalidate, replay, or drop
    // -- the pre-epoch agent, stale-rate bug re-introduced.
    if (!epoch_seen_ || core::epoch_newer(e, observed_epoch_)) {
      epoch_seen_ = true;
      observed_epoch_ = e;
    }
    return true;
  }
  if (epoch_seen_ && e == observed_epoch_) return true;
  if (epoch_seen_ && !core::epoch_newer(e, observed_epoch_)) return false;
  const bool first = !epoch_seen_;
  epoch_seen_ = true;
  observed_epoch_ = e;
  if (first) {
    epoch_adopt_gen_ = conn_gen_;
    return true;
  }
  ++stats_.epoch_advances;
  for (auto& [key, st] : flows_) {
    if (st.in_fallback || st.rate_code == 0) continue;
    if (!core::epoch_newer(e, st.rate_epoch)) continue;
    st.in_fallback = true;
    ++stats_.epoch_invalidated_rates;
    if (m_ != nullptr) m_->epoch_invalidated_rates.add(1);
    if (cfg_.on_fallback) cfg_.on_fallback(key, st.rate_bps, true);
  }
  if (epoch_adopt_gen_ == conn_gen_ && fd_ >= 0) {
    replay_flowlets();
    ++stats_.epoch_replays;
  }
  epoch_adopt_gen_ = conn_gen_;
  return true;
}

void EndpointAgent::arm_lease(std::int64_t now_us) {
  if (lease_us_ == 0) return;
  lease_deadline_us_ = now_us + lease_us_;
  if (state_ == ConnState::kDegraded) {
    state_ = ConnState::kConnected;
    note_recovered(now_us);
  }
}

void EndpointAgent::enter_degraded(std::int64_t now_us) {
  state_ = ConnState::kDegraded;
  lease_deadline_us_ = 0;
  ++stats_.lease_expiries;
  if (m_ != nullptr) m_->lease_expiries.add(1);
  if (degraded_since_us_ == 0) degraded_since_us_ = now_us;
  next_decay_us_ = now_us;  // first decay tick runs immediately
}

void EndpointAgent::note_recovered(std::int64_t now_us) {
  if (degraded_since_us_ == 0) return;
  const std::int64_t span = now_us - degraded_since_us_;
  stats_.degraded_us += span;
  if (m_ != nullptr) {
    m_->degraded_us.add(static_cast<std::uint64_t>(std::max<std::int64_t>(
        span, 0)));
  }
  degraded_since_us_ = 0;
}

// Degraded/reconnecting: walk the applied rates toward the safe
// fallback instead of pinning a stale allocation (§ failure model; the
// FallbackPolicy hook hands each flow to the endpoint's own congestion
// control on entry). Zero-alloc: iterates the existing flow table.
void EndpointAgent::run_fallback_decay(std::int64_t now_us) {
  if (flows_.empty() || now_us < next_decay_us_) return;
  next_decay_us_ = now_us + cfg_.fallback_decay_interval_us;
  for (auto& [key, st] : flows_) {
    if (!st.in_fallback) {
      st.in_fallback = true;
      if (cfg_.on_fallback) cfg_.on_fallback(key, st.rate_bps, true);
    }
    if (st.rate_bps > cfg_.fallback_rate_bps) {
      st.rate_bps = std::max(cfg_.fallback_rate_bps,
                             st.rate_bps * cfg_.fallback_decay);
    }
  }
}

bool EndpointAgent::flowlet_start(std::uint32_t key, std::uint16_t src,
                                  std::uint16_t dst,
                                  std::uint32_t size_hint_bytes,
                                  std::uint16_t weight_milli) {
  if (flows_.contains(key)) return false;
  const std::int64_t now = clock_->now_us();
  flows_.emplace(key, FlowletState{.src = src,
                                   .dst = dst,
                                   .weight_milli = weight_milli,
                                   .start_us = m_ != nullptr ? now : 0,
                                   .registered_us = now});
  const std::uint16_t flags = next_start_flags();
  writer_.add(core::FlowletStartMsg{key, src, dst, size_hint_bytes,
                                    weight_milli, flags});
  if (flags != 0) emit_trace_mark(key);
  ++stats_.starts_sent;
  if (detector_) {
    // Prime the detector so the idle sweep covers explicit
    // registrations too; detected_start sees the key active and does
    // not double-send. The weight rides in the flow's slot so a
    // detector-driven restart of this flow re-registers with it.
    detector_->on_packet(
        {key, src, dst, size_hint_bytes, now_ps(), 0});
    if (flowlet::FlowSlot* s = detector_->find_flow(key)) {
      s->user_tag = weight_milli;
    }
  }
  if (writer_.pending_bytes() >= kAgentFlushThresholdBytes) flush();
  return true;
}

bool EndpointAgent::flowlet_end(std::uint32_t key) {
  if (flows_.erase(key) == 0) return false;
  if (detector_) {
    detector_->end_flow(key);
    // Explicit deregistration retires the weight; a later detected
    // restart of this key is a fresh flow.
    if (flowlet::FlowSlot* s = detector_->find_flow(key)) {
      s->user_tag = 0;
    }
  }
  writer_.add(core::FlowletEndMsg{key});
  ++stats_.ends_sent;
  if (writer_.pending_bytes() >= kAgentFlushThresholdBytes) flush();
  return true;
}

void EndpointAgent::touch(std::uint32_t key) {
  if (!detector_) return;
  const auto it = flows_.find(key);
  if (it == flows_.end()) return;
  detector_->on_packet(
      {key, it->second.src, it->second.dst, 0, now_ps(), 0});
}

void EndpointAgent::observe_packet(std::uint32_t key, std::uint16_t src,
                                   std::uint16_t dst,
                                   std::uint32_t bytes) {
  FT_CHECK(detector_ != nullptr);
  detector_->on_packet({key, src, dst, bytes, now_ps(), 0});
  if (writer_.pending_bytes() >= kAgentFlushThresholdBytes) flush();
}

void EndpointAgent::detected_start(const flowlet::PacketRecord& p) {
  if (flows_.contains(p.flow_key)) return;  // explicitly registered
  // A flow registered with a non-default weight keeps it when the
  // detector restarts it after a gap (the weight lives in the flow's
  // slot); size hint 0 = unknown, we only ever see one packet here.
  std::uint16_t weight = 1000;
  if (const flowlet::FlowSlot* s = detector_->find_flow(p.flow_key);
      s != nullptr && s->user_tag != 0) {
    weight = s->user_tag;
  }
  const std::int64_t now = clock_->now_us();
  flows_.emplace(p.flow_key, FlowletState{.src = p.src_host,
                                          .dst = p.dst_host,
                                          .weight_milli = weight,
                                          .start_us = m_ != nullptr ? now : 0,
                                          .registered_us = now});
  const std::uint16_t flags = next_start_flags();
  writer_.add(core::FlowletStartMsg{p.flow_key, p.src_host, p.dst_host,
                                    0, weight, flags});
  if (flags != 0) emit_trace_mark(p.flow_key);
  ++stats_.starts_sent;
}

void EndpointAgent::detected_end(std::uint32_t key) {
  if (flows_.erase(key) == 0) return;
  writer_.add(core::FlowletEndMsg{key});
  ++stats_.ends_sent;
  ++stats_.idle_ends;
}

std::uint16_t EndpointAgent::next_start_flags() {
  if (cfg_.trace_sample_every == 0) return 0;
  if (++trace_start_count_ % cfg_.trace_sample_every != 0) return 0;
  return core::kFlowletStartTracedFlag;
}

void EndpointAgent::emit_trace_mark(std::uint32_t key) {
  core::TraceMarkMsg mark;
  mark.flow_key = key;
  mark.trace_id =
      (static_cast<std::uint64_t>(key) << 32) ^ ++trace_seq_;
  mark.t_ns[core::kHopAgentSend] = obs::now_ns();
  writer_.add(mark);
  ++stats_.traces_sent;
}

void EndpointAgent::on_trace_mark(const core::TraceMarkMsg& m) {
  // The completed echo. Slot 0 and this receive stamp are on our RAW
  // clock, hops 1..5 on the service's; same-host runs share one clock so
  // every delta below is exact. Cross-host, only the agent-side total
  // and the service-side run are individually meaningful.
  const std::int64_t t6 = obs::now_ns();
  last_trace_.mark = m;
  last_trace_.t_receive_ns = t6;
  ++stats_.traces_completed;
  const auto& t = m.t_ns;
  const std::int64_t e2e = t6 - t[core::kHopAgentSend];
  if (m_ != nullptr) {
    const std::int64_t service =
        t[core::kHopFanoutWrite] - t[core::kHopShardIngest];
    m_->e2e_update_us.record_signed(e2e / 1000);
    m_->e2e_queue_us.record_signed(
        (t[core::kHopRoundPickup] - t[core::kHopShardIngest]) / 1000);
    m_->e2e_solve_us.record_signed(
        (t[core::kHopSolveDone] - t[core::kHopRoundPickup]) / 1000);
    m_->e2e_emit_us.record_signed(
        (t[core::kHopEmitDone] - t[core::kHopSolveDone]) / 1000);
    m_->e2e_fanout_us.record_signed(
        (t[core::kHopFanoutWrite] - t[core::kHopEmitDone]) / 1000);
    m_->e2e_service_us.record_signed(service / 1000);
    m_->e2e_wire_us.record_signed((e2e - service) / 1000);
  }
  if (obs::PhaseTracer::enabled()) {
    obs::PhaseTracer::record("e2e.update", t[core::kHopAgentSend] / 1000,
                             e2e / 1000);
  }
}

void EndpointAgent::on_heartbeat(const core::HeartbeatMsg& m) {
  ++stats_.heartbeats_received;
  // Epoch 0 = unstamped (agent-originated beacons; pre-epoch peers).
  if (m.epoch != 0 && !observe_epoch(m.epoch)) {
    // A pre-restart allocator's beacon must not re-arm the lease the
    // new epoch's silence is supposed to expire.
    ++stats_.stale_heartbeats_discarded;
    if (m_ != nullptr) m_->stale_heartbeats_discarded.add(1);
    return;
  }
  // The service's beacon proves the allocation plane alive even for
  // flows whose thresholded rate never changes; it also advertises the
  // lease duration the agent should hold rates for.
  if (m.lease_us > 0) {
    lease_us_ = m.lease_us;
    arm_lease(now_cache_us_ != 0 ? now_cache_us_ : clock_->now_us());
  }
}

void EndpointAgent::on_rate_update(const core::RateUpdateMsg& m) {
  ++stats_.updates_received;
  if (m.epoch != 0 && !observe_epoch(m.epoch)) {
    // A rate the pre-restart allocator computed: applying it would pin
    // state the live allocator knows nothing about. Dropped (counted),
    // and it proves nothing about lease freshness either.
    ++stats_.stale_updates_discarded;
    if (m_ != nullptr) m_->stale_updates_discarded.add(1);
    return;
  }
  // Every update implies a fresh lease (the service just proved this
  // allocation current).
  if (lease_us_ > 0) {
    arm_lease(now_cache_us_ != 0 ? now_cache_us_ : clock_->now_us());
  }
  const auto it = flows_.find(m.flow_key);
  if (it == flows_.end()) return;  // raced with a local flowlet-end
  if (it->second.in_fallback) {
    // Fresh central allocation reclaims the flow from fallback.
    it->second.in_fallback = false;
    if (cfg_.on_fallback) {
      cfg_.on_fallback(m.flow_key, decode_rate(m.rate_code), false);
    }
  }
  if (m_ != nullptr) {
    m_->updates_received.add(1);
    if (it->second.start_us != 0) {
      // First allocation for this flowlet: registration -> rate-back
      // round trip through the service (queueing + round + fan-out).
      m_->first_update_rtt_us.record_signed(clock_->now_us() -
                                            it->second.start_us);
      it->second.start_us = 0;
    }
  }
  it->second.rate_code = m.rate_code;
  it->second.rate_bps = decode_rate(m.rate_code);
  it->second.rate_epoch = m.epoch;
  // A rate on this connection acks the flow's registration: the
  // allocator provably knows about it (see kReregisterPeriodUs).
  it->second.ack_conn_gen = conn_gen_;
  if (on_rate_) on_rate_(m.flow_key, it->second.rate_bps, m.rate_code);
}

void EndpointAgent::snapshot_flows(std::vector<FlowView>& out) const {
  out.reserve(out.size() + flows_.size());
  for (const auto& [key, st] : flows_) {
    out.push_back(FlowView{key, st.rate_code, st.rate_epoch,
                           st.in_fallback, st.rate_bps});
  }
}

double EndpointAgent::rate_bps(std::uint32_t key) const {
  const auto it = flows_.find(key);
  return it == flows_.end() ? 0.0 : it->second.rate_bps;
}

std::uint16_t EndpointAgent::rate_code(std::uint32_t key) const {
  const auto it = flows_.find(key);
  return it == flows_.end() ? 0 : it->second.rate_code;
}

bool EndpointAgent::drain_socket() {
  std::uint8_t buf[64 * 1024];
  while (true) {
    const std::int64_t n = tr_->read(fd_, buf, sizeof buf);
    if (n > 0) {
      stats_.bytes_in += n;
      last_rx_us_ = now_cache_us_ != 0 ? now_cache_us_ : clock_->now_us();
      if (!parser_.feed({buf, static_cast<std::size_t>(n)}, *this)) {
        return false;  // malformed stream from the service
      }
      if (static_cast<std::size_t>(n) < sizeof buf) return true;
      continue;
    }
    if (n == 0) return false;  // service closed
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    if (errno == EINTR) continue;
    return false;
  }
}

bool EndpointAgent::try_write() {
  while (out_off_ < outbox_.size()) {
    const std::int64_t n = tr_->write(fd_, outbox_.data() + out_off_,
                                      outbox_.size() - out_off_);
    if (n > 0) {
      out_off_ += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  outbox_.clear();
  out_off_ = 0;
  return true;
}

bool EndpointAgent::registration_unacked(const FlowletState& st) const {
  return st.ack_conn_gen != conn_gen_ ||
         (cfg_.epoch_filtering && epoch_seen_ &&
          st.rate_epoch != observed_epoch_);
}

void EndpointAgent::flush() {
  if (fd_ < 0) {
    // Disconnected: nothing will ever be sent; drop instead of letting
    // pending output grow without bound. The reconnect replay -- not
    // this residue -- rebuilds service state, and the drop is counted
    // (agent.queue_drops_on_close), never silent.
    drop_pending_output();
    return;
  }
  const std::size_t framed = writer_.flush(outbox_);
  if (framed > 0) {
    ++stats_.frames_out;
    stats_.bytes_out += static_cast<std::int64_t>(framed);
    stats_.wire_bytes_out +=
        wire_bytes_tcp_stream(static_cast<std::int64_t>(framed));
  }
  if (outbox_.size() - out_off_ > kAgentMaxOutboxBytes) {
    // The service stopped reading; give up rather than buffer forever.
    lose_connection(clock_->now_us());
    return;
  }
  if (!try_write()) lose_connection(clock_->now_us());
}

bool EndpointAgent::poll() {
  const std::int64_t now = clock_->now_us();
  now_cache_us_ = now;
  if (fd_ < 0) {
    if (state_ != ConnState::kReconnecting) {
      now_cache_us_ = 0;
      return false;
    }
    // Reconnect ladder: the detector keeps sweeping (flows that go
    // idle during the outage still end locally) and rates keep
    // decaying toward the fallback while the backoff runs.
    if (detector_) detector_->advance(now_ps());
    run_fallback_decay(now);
    try_reconnect(now);
    now_cache_us_ = 0;
    return true;  // still recovering, not lost for good
  }
  std::int64_t t0 = 0;
  if (m_ != nullptr) {
    t0 = now;
    // The gap between polls bounds rate-apply lag: an update that
    // arrived just after the previous poll waits this long on the wire.
    if (last_poll_us_ != 0) m_->poll_gap_us.record_signed(t0 - last_poll_us_);
    last_poll_us_ = t0;
  }
  if (!drain_socket()) {
    lose_connection(now);
    now_cache_us_ = 0;
    return state_ == ConnState::kReconnecting;
  }
  // Dead-peer detection: a service that stopped talking (no updates,
  // no heartbeats) for peer_timeout_us is gone even though TCP has not
  // noticed -- O(heartbeat) failover instead of O(TCP timeout). Armed
  // from the connect instant: became_connected stamps last_rx_us_, so a
  // service that never sends a byte times out too (also when the
  // connect happened at clock 0).
  if (cfg_.peer_timeout_us > 0 &&
      now - last_rx_us_ > cfg_.peer_timeout_us) {
    lose_connection(now);
    now_cache_us_ = 0;
    return state_ == ConnState::kReconnecting;
  }
  // Rate-lease expiry: the allocation is stale; degrade and start
  // handing rates back to endpoint congestion control.
  if (state_ == ConnState::kConnected && lease_deadline_us_ != 0 &&
      now > lease_deadline_us_ && cfg_.lease_enforcement) {
    enter_degraded(now);
  }
  if (state_ == ConnState::kDegraded) run_fallback_decay(now);
  // The detector's idle sweep replaces the old per-poll expire_idle
  // vector churn: expiry state lives in the detector's bounded table
  // and its reused scratch buffer.
  if (detector_) detector_->advance(now_ps());
  // Agent-side liveness beacon, so the service's peer timeout never
  // culls an idle-but-alive endpoint.
  if (cfg_.heartbeat_period_us > 0 &&
      now - last_hb_tx_us_ >= cfg_.heartbeat_period_us) {
    writer_.add(core::HeartbeatMsg{obs::now_ns(), 0});
    last_hb_tx_us_ = now;
    ++stats_.heartbeats_sent;
  }
  // Registration refresh: flowlet registration is soft state. If any
  // flow registered a full period ago has never been acked by a rate
  // update on this connection (a replay died in a fault window), or
  // still holds a rate from an older allocator epoch than the newest
  // observed (a warm-restart replay died the same way), re-send the
  // full registration; the service answers a duplicate start from the
  // owning connection by re-arming that flow's notification. Without
  // this, a black hole overlapping a reconnect or restart strands the
  // plane forever -- the chaos campaign's very first find. A flow
  // younger than the period is only waiting for its first rate.
  if (state_ == ConnState::kConnected &&
      now - last_replay_us_ >= kReregisterPeriodUs) {
    bool unacked = false;
    for (const auto& [key, st] : flows_) {
      if (registration_unacked(st) &&
          now - st.registered_us >= kReregisterPeriodUs) {
        unacked = true;
        break;
      }
    }
    if (unacked) {
      ++stats_.registration_refreshes;
      replay_flowlets();
    }
  }
  flush();
  if (m_ != nullptr) {
    m_->poll_us.record_signed(clock_->now_us() - t0);
    if (detector_) {
      const flowlet::FlowletTable& t = detector_->table();
      m_->detector_occupancy.set(
          static_cast<std::int64_t>(t.occupied()));
      m_->detector_evictions.set(
          static_cast<std::int64_t>(t.stats().evictions));
    }
  }
  now_cache_us_ = 0;
  return fd_ >= 0 || state_ == ConnState::kReconnecting;
}

// Mirrors poll() branch by branch: each deadline is the first clock
// time at which that branch's comparison holds. Edit the two together.
std::int64_t EndpointAgent::next_poll_us() const {
  constexpr std::int64_t kNever = std::numeric_limits<std::int64_t>::max();
  if (fd_ < 0) {
    if (state_ != ConnState::kReconnecting) return kNever;
    if (detector_) return 0;
    return flows_.empty() ? next_attempt_us_
                          : std::min(next_attempt_us_, next_decay_us_);
  }
  if (detector_ || m_ != nullptr || !writer_.empty() ||
      out_off_ < outbox_.size()) {
    return 0;
  }
  std::int64_t t = kNever;
  if (cfg_.peer_timeout_us > 0) {
    t = std::min(t, last_rx_us_ + cfg_.peer_timeout_us + 1);  // poll: >
  }
  if (state_ == ConnState::kConnected && lease_deadline_us_ != 0 &&
      cfg_.lease_enforcement) {
    t = std::min(t, lease_deadline_us_ + 1);  // poll: >
  }
  if (state_ == ConnState::kDegraded && !flows_.empty()) {
    t = std::min(t, next_decay_us_);
  }
  if (cfg_.heartbeat_period_us > 0) {
    t = std::min(t, last_hb_tx_us_ + cfg_.heartbeat_period_us);
  }
  if (state_ == ConnState::kConnected) {
    for (const auto& [key, st] : flows_) {
      if (registration_unacked(st)) {
        t = std::min(t, std::max(last_replay_us_, st.registered_us) +
                            kReregisterPeriodUs);
      }
    }
  }
  return t;
}

}  // namespace ft::net
