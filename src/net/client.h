// EndpointAgent: the endpoint side of the allocator control plane.
//
// The agent owns one socket to the allocator service. The application
// either registers flowlets explicitly (flowlet_start/flowlet_end) or --
// the detection path -- just reports transmitted packets via
// observe_packet() and lets the agent's FlowletDetector decide where
// flowlets begin and end: detected starts and gap/idle ends are framed
// and batched to the service automatically, so the exact same detection
// policy (src/flowlet/) runs in simulation and on the live control
// plane. By default the agent builds a StaticGapDetector from
// AgentConfig::idle_gap_us (the pre-detector behaviour); pass any
// FlowletDetector (e.g. a FlowDyn-style DynamicGapDetector) to replace
// the policy.
//
// Single-threaded: call poll() from one thread (an event loop tick or a
// pacing loop). poll() drains the socket, runs the detector's idle sweep
// and flushes pending writes.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "flowlet/detector.h"
#include "net/frame.h"
#include "net/transport.h"

namespace ft::obs {
class MetricsRegistry;
}  // namespace ft::obs

namespace ft::net {

// Agent connection state (conn_state()). The failure ladder runs
// kConnected -> kDegraded (socket up but the rate lease expired: the
// service stopped proving its allocations fresh, so applied rates decay
// toward the fallback) -> kReconnecting (socket lost, jittered
// exponential backoff running). kDisconnected is terminal: either the
// agent never connected, auto_reconnect is off, or disconnect() was
// called deliberately.
enum class ConnState : std::uint8_t {
  kDisconnected = 0,
  kConnected = 1,
  kDegraded = 2,
  kReconnecting = 3,
};

// The agent flushes its outgoing batch once it holds this many payload
// bytes (latency/amortization trade-off).
inline constexpr std::size_t kAgentFlushThresholdBytes = 16 * 1024;
// The agent gives up (disconnects) once this much unsent output is
// buffered: a service that stopped reading must not grow it without
// bound.
inline constexpr std::size_t kAgentMaxOutboxBytes = 4 * 1024 * 1024;
// Registration refresh. Flowlet registration is soft state: a start (or
// a reconnect/epoch replay) can die in a fault window -- eaten by a
// silent partition, dropped frame, or a restart race -- and nothing
// downstream would ever retry. A rate update arriving on the current
// connection acks the flow's registration. While kConnected, a flow
// counts as unacked once it has been registered this long without an
// ack (or, with epoch filtering, still holds a rate from an older epoch
// than the newest observed); one such flow, this long after the last
// replay, triggers another full replay. A flow started a moment ago is
// not yet overdue, so churn alone never replays the table. The service
// treats a duplicate start from the owning connection as "re-send my
// rate" (see ServiceStats::replayed_starts), closing the loop even when
// the original rate update was the casualty.
inline constexpr std::int64_t kReregisterPeriodUs = 250'000;

struct AgentConfig {
  // The transport/clock seam this agent runs on. Null = the process-wide
  // OS transport (real sockets, CLOCK_MONOTONIC). The virtual-time
  // harness passes a sim::SimTransport instead, and every deadline in
  // the agent -- poll cadence, heartbeats, lease expiry, backoff jitter
  // waits -- then lives on simulated time.
  Transport* transport = nullptr;
  // When no detector is supplied: auto flowlet-end after this much
  // inactivity via a StaticGapDetector; <= 0 disables detection.
  std::int64_t idle_gap_us = 0;
  // Slot count for the auto-built detector's flow table. Detection
  // state is bounded and direct-mapped, so two live flows whose keys
  // hash to the same slot evict each other (the evicted flowlet is
  // ended and its next packet re-registers it). Size this comfortably
  // above the expected number of concurrent flows.
  std::size_t detector_table_capacity = 1 << 14;
  // Optional telemetry sink (src/obs/): agent.first_update_rtt_us
  // (flowlet-start sent -> first rate update back), agent.poll_us /
  // agent.poll_gap_us (rate-apply lag: how stale an update can get
  // between polls), and detector table occupancy/eviction gauges. Null
  // disables recording entirely (no clock reads on the packet path).
  obs::MetricsRegistry* metrics = nullptr;
  // End-to-end update-path tracing: every Nth flowlet start is sampled
  // (its FlowletStartMsg carries kFlowletStartTracedFlag and a
  // TraceMarkMsg rides the same batch). The service stamps each hop and
  // echoes the completed mark back on the flow's first rate update,
  // landing e2e.* span histograms in `metrics` and the raw hops in
  // last_trace(). 0 disables sampling.
  std::uint32_t trace_sample_every = 0;

  // --- Fault tolerance (all off by default: the pre-recovery agent) ---

  // Lost connections re-dial automatically from poll(): jittered
  // exponential backoff between attempts, and on success every live
  // flowlet is re-registered (a replayed flowlet_start batch built from
  // the agent's own flow table), so an allocator that crash-restarted
  // rebuilds its entire flow set purely from these replays.
  bool auto_reconnect = false;
  // Backoff bounds: attempt i waits uniformly in [b/2, b) where
  // b = min(reconnect_backoff_min_us * 2^i, reconnect_backoff_max_us).
  // The jitter keeps a storm of agents losing one allocator from
  // re-dialing in lockstep (thundering herd).
  std::int64_t reconnect_backoff_min_us = 10'000;
  std::int64_t reconnect_backoff_max_us = 1'000'000;
  // Seed for the backoff jitter. 0 derives a per-agent seed from the
  // agent's address so colocated agents spread naturally; tests pass
  // explicit seeds for reproducible schedules.
  std::uint64_t reconnect_seed = 0;
  // Agent -> service liveness beacons: at least one heartbeat record is
  // sent per period so a silent-but-alive agent is never culled by the
  // service's peer timeout. 0 disables.
  std::int64_t heartbeat_period_us = 0;
  // Dead service detection: if no bytes (rate updates or heartbeats)
  // arrive for this long the connection is declared dead and the
  // reconnect path runs -- O(heartbeat) instead of O(TCP timeout).
  // 0 disables (only FIN/RST tears the connection down).
  std::int64_t peer_timeout_us = 0;

  // --- Rate leases (tentpole 2) ---
  // The service advertises a lease duration on its heartbeats; every
  // heartbeat or rate update received re-arms the lease. When it
  // expires (>= lease_us of silence) the agent stops trusting its
  // allocation: conn_state() degrades and each applied rate decays by
  // fallback_decay every fallback_decay_interval_us toward
  // fallback_rate_bps -- the paper's failure story, handing control
  // back to the endpoint's own congestion control instead of pinning a
  // stale centrally-allocated rate forever. A fresh update re-arms the
  // lease and restores normal operation.
  double fallback_rate_bps = 0.0;   // decay floor (0 = decay to zero)
  double fallback_decay = 0.5;      // multiplicative decay per interval
  std::int64_t fallback_decay_interval_us = 10'000;
  // FallbackPolicy hook: (flow_key, current rate_bps, entering).
  // Called once per flow when it enters fallback (entering = true;
  // the app should hand the flow to its own congestion control) and
  // once when a fresh rate update reclaims it (entering = false).
  // Null = no hook; the decayed value is still visible via rate_bps().
  std::function<void(std::uint32_t, double, bool)> on_fallback;

  // --- Allocator epochs ---
  // Heartbeats and rate updates carry the allocator's epoch (core/
  // messages.h), which increments on every service (re)start. The agent
  // tracks the newest epoch it has seen; on an epoch advance it
  // invalidates every held rate the old allocator computed (into
  // fallback, firing on_fallback) and, if the advance arrived WITHOUT an
  // intervening reconnect (warm restart behind a VIP/proxy: the socket
  // never dropped, so no reconnect replay ran), re-registers its
  // flowlets so the new allocator learns them. Records from an older
  // epoch than the newest observed are discarded -- counted, never
  // silent. This test hook exists so mutation tests can re-introduce
  // the stale-rate bug and prove the chaos oracles catch it; production
  // code never clears it.
  bool epoch_filtering = true;
  // Mutation hook: when false, the agent tracks its rate lease but
  // never acts on expiry -- flows keep allocator rates indefinitely
  // after the service goes silent. Exists so the chaos suite can prove
  // the lease-safety oracle catches exactly this bug; never disable in
  // production.
  bool lease_enforcement = true;
  // Mutation hook: when true, a lost connection's transport handle is
  // never closed (the slot leaks). Exists so the chaos suite can prove
  // the fd-leak oracle catches exactly this bug; never enable in
  // production.
  bool leak_connection_fds = false;
};

struct AgentStats {
  std::uint64_t starts_sent = 0;
  std::uint64_t ends_sent = 0;
  std::uint64_t idle_ends = 0;  // subset of ends_sent from the detector
  std::uint64_t updates_received = 0;
  std::uint64_t traces_sent = 0;       // sampled starts with a mark
  std::uint64_t traces_completed = 0;  // echoes received back
  std::uint64_t frames_out = 0;
  std::int64_t bytes_out = 0;
  std::int64_t bytes_in = 0;
  std::int64_t wire_bytes_out = 0;
  // Fault tolerance:
  std::uint64_t disconnects = 0;          // connections lost (any cause)
  std::uint64_t reconnects = 0;           // successful re-dials
  std::uint64_t reconnect_attempts = 0;   // dials, incl. failures
  std::uint64_t replayed_starts = 0;      // flowlet_starts re-sent
  std::uint64_t heartbeats_sent = 0;
  std::uint64_t heartbeats_received = 0;
  std::uint64_t lease_expiries = 0;       // kConnected -> kDegraded
  // Records still queued (open batch) when a connection died; they are
  // dropped -- the reconnect replay, not the residue, rebuilds state.
  std::uint64_t queue_drops_on_close = 0;
  std::int64_t degraded_us = 0;  // cumulative time not kConnected
  // Allocator epochs:
  std::uint64_t epoch_advances = 0;         // newer epoch adopted
  std::uint64_t epoch_invalidated_rates = 0;  // held rates forced stale
  std::uint64_t epoch_replays = 0;  // warm-restart replays (no reconnect)
  std::uint64_t stale_updates_discarded = 0;    // older-epoch rates
  std::uint64_t stale_heartbeats_discarded = 0;  // older-epoch beacons
  // Periodic replays fired because a flow's registration was never
  // acked (no rate update on the current connection / current epoch).
  std::uint64_t registration_refreshes = 0;

  friend bool operator==(const AgentStats&, const AgentStats&) = default;
};

class EndpointAgent : MessageSink {
 public:
  // Rate-update observer: (flow_key, rate_bps, rate_code).
  using RateCallback =
      std::function<void(std::uint32_t, double, std::uint16_t)>;

  explicit EndpointAgent(
      AgentConfig cfg = {},
      std::unique_ptr<flowlet::FlowletDetector> detector = nullptr);
  ~EndpointAgent() override;
  EndpointAgent(const EndpointAgent&) = delete;
  EndpointAgent& operator=(const EndpointAgent&) = delete;

  [[nodiscard]] bool connect_tcp(const std::string& host, int port);
  [[nodiscard]] bool connect_unix(const std::string& path);
  [[nodiscard]] bool connected() const { return fd_ >= 0; }
  // The live connection's transport handle (-1 when none), for callers
  // that watch it on an IoLoop and poll() when it turns readable.
  [[nodiscard]] int handle() const { return fd_; }
  // Deliberate teardown: closes the socket and disables auto-reconnect
  // (state -> kDisconnected). Losing the socket involuntarily instead
  // runs the recovery ladder -- see ConnState.
  void disconnect();

  [[nodiscard]] ConnState conn_state() const { return state_; }
  // The jittered delay (us) behind the most recent reconnect attempt;
  // tests assert the spread across agents (no thundering herd).
  [[nodiscard]] std::int64_t last_backoff_us() const {
    return last_backoff_us_;
  }
  // True while the rate lease is armed and fresh (service heartbeats /
  // updates arriving within the advertised lease window).
  [[nodiscard]] bool lease_fresh() const {
    return lease_deadline_us_ != 0 && state_ == ConnState::kConnected;
  }

  void set_rate_callback(RateCallback cb) { on_rate_ = std::move(cb); }

  // Registers a flowlet from host index `src` to `dst` (batched; sent on
  // the next flush/poll). Returns false if the key is already active.
  // When detection is enabled, an idle gap (or, rarely, a detector
  // table collision) auto-ends the flowlet exactly like the old idle
  // timer did: it drops out of is_active() and later touch() calls
  // no-op, so an app that keeps sending should watch is_active() and
  // re-register -- or report traffic via observe_packet(), which
  // re-registers automatically. A non-default weight survives
  // detector-driven end/restart cycles (it rides in the detector's
  // bounded flow table) until the slot is evicted.
  bool flowlet_start(std::uint32_t key, std::uint16_t src,
                     std::uint16_t dst, std::uint32_t size_hint_bytes = 0,
                     std::uint16_t weight_milli = 1000);
  // Explicitly ends a flowlet. Returns false if the key is unknown.
  bool flowlet_end(std::uint32_t key);
  // Marks traffic activity on a flowlet, deferring its idle expiry.
  void touch(std::uint32_t key);

  // Detection path: reports one transmitted packet of flow `key`. The
  // detector auto-registers the flowlet on its first packet (and after
  // every detected gap), so no flowlet_start call is needed. Requires a
  // detector (idle_gap_us > 0 or one passed at construction).
  void observe_packet(std::uint32_t key, std::uint16_t src,
                      std::uint16_t dst, std::uint32_t bytes = 0);

  // Drains incoming rate updates, runs the detector's idle sweep
  // (against the same CLOCK_MONOTONIC clock that stamps activity),
  // flushes pending writes, and drives the whole recovery ladder:
  // lease expiry -> fallback decay, dead-peer detection, and (with
  // auto_reconnect) backed-off re-dials with flowlet replay. Returns
  // false once the connection is lost for good (never while
  // kReconnecting). Apart from what arrives on handle(), every action
  // poll() takes is due at a clock time next_poll_us() names.
  bool poll();
  // The earliest clock time (us) at which poll() has work that no
  // readiness on handle() would announce: a timer due (peer timeout,
  // lease expiry, fallback decay, heartbeat, registration refresh,
  // reconnect attempt), or 0 when every poll has work (pending output,
  // a detector's idle sweep, a metrics sink's poll histograms).
  // INT64_MAX once the agent is disconnected for good. A caller that
  // polls many agents may skip one whose handle is not readable while
  // this lies in the future: that poll would change nothing. Valid
  // until the next call into the agent.
  [[nodiscard]] std::int64_t next_poll_us() const;
  // Forces the open batch onto the wire.
  void flush();

  [[nodiscard]] bool is_active(std::uint32_t key) const {
    return flows_.contains(key);
  }
  [[nodiscard]] std::size_t num_active() const { return flows_.size(); }
  // Last rate applied for a flow (0 before the first update / unknown).
  [[nodiscard]] double rate_bps(std::uint32_t key) const;
  [[nodiscard]] std::uint16_t rate_code(std::uint32_t key) const;

  // Newest allocator epoch observed on this agent's wire (meaningful
  // once epoch_seen(); epochs compare with core::epoch_newer).
  [[nodiscard]] std::uint16_t observed_epoch() const {
    return observed_epoch_;
  }
  [[nodiscard]] bool epoch_seen() const { return epoch_seen_; }
  // Armed lease deadline (us on the agent's clock; 0 = not armed).
  [[nodiscard]] std::int64_t lease_deadline_us() const {
    return lease_deadline_us_;
  }

  // Read-only view of one live flowlet's applied-rate state, for the
  // chaos-engine invariant oracles (sim/oracles.h).
  struct FlowView {
    std::uint32_t key = 0;
    std::uint16_t rate_code = 0;
    std::uint16_t rate_epoch = 0;  // epoch that computed the held rate
    bool in_fallback = false;
    double rate_bps = 0.0;
  };
  // Appends a view of every live flowlet to `out` (unspecified order).
  void snapshot_flows(std::vector<FlowView>& out) const;

  [[nodiscard]] const AgentStats& stats() const { return stats_; }
  // The most recent completed trace: the echoed mark's six wire hops
  // plus the local receive stamp (the seventh). Meaningful once
  // stats().traces_completed > 0.
  struct TraceResult {
    core::TraceMarkMsg mark;
    std::int64_t t_receive_ns = 0;
  };
  [[nodiscard]] const TraceResult& last_trace() const {
    return last_trace_;
  }
  // The active detection policy (nullptr when detection is disabled).
  [[nodiscard]] const flowlet::FlowletDetector* detector() const {
    return detector_.get();
  }

 private:
  struct Metrics;  // resolved registry handles (client.cc)

  struct FlowletState {
    double rate_bps = 0.0;
    std::uint16_t rate_code = 0;
    std::uint16_t src = 0;
    std::uint16_t dst = 0;
    std::uint16_t weight_milli = 1000;
    // Registration time, for first_update_rtt_us (0 = not tracked, or
    // the first update already arrived).
    std::int64_t start_us = 0;
    bool in_fallback = false;  // decaying toward the safe rate
    // Allocator epoch stamped on the update that set rate_code (0 =
    // no update applied yet, or a pre-epoch peer). Last in the struct:
    // callers aggregate-initialize the fields above.
    std::uint16_t rate_epoch = 0;
    // conn_gen_ when a rate update last arrived for this flow: the
    // registration ack. != conn_gen_ means the current connection has
    // never confirmed this flow (see kReregisterPeriodUs).
    std::uint64_t ack_conn_gen = 0;
    // When the application (or the detector) registered the flow; an
    // unacked flow is overdue for refresh a full period after this.
    std::int64_t registered_us = 0;
  };

  void on_rate_update(const core::RateUpdateMsg& m) override;
  void on_trace_mark(const core::TraceMarkMsg& m) override;
  void on_heartbeat(const core::HeartbeatMsg& m) override;
  // Sampling decision for the next flowlet start (0 or the traced flag).
  [[nodiscard]] std::uint16_t next_start_flags();
  // Appends the origin-stamped mark behind its sampled start record.
  void emit_trace_mark(std::uint32_t key);
  bool adopt_socket(int fd);
  bool drain_socket();
  bool try_write();
  // Recovery machinery (client.cc): dial the remembered target, tear a
  // dead connection down (arming the backoff when auto_reconnect is
  // on), attempt a re-dial + flowlet replay, lease bookkeeping.
  [[nodiscard]] int dial_target() const;
  void became_connected(std::int64_t now_us);
  void lose_connection(std::int64_t now_us);
  void try_reconnect(std::int64_t now_us);
  void schedule_next_attempt(std::int64_t now_us);
  void replay_flowlets();
  // Folds a wire-observed allocator epoch into the agent's view: adopts
  // newer epochs (invalidating pre-restart rates; replaying flowlets on
  // a warm restart that never dropped the socket). Returns false when
  // the record carrying `e` is from an older epoch and must be dropped.
  bool observe_epoch(std::uint16_t e);
  void arm_lease(std::int64_t now_us);
  void enter_degraded(std::int64_t now_us);
  void note_recovered(std::int64_t now_us);
  void run_fallback_decay(std::int64_t now_us);
  // True while the current connection has not confirmed `st` (no rate
  // on it yet, or one from an older epoch); see kReregisterPeriodUs.
  [[nodiscard]] bool registration_unacked(const FlowletState& st) const;
  void drop_pending_output();
  // Detector callbacks: auto-register / auto-end flowlets.
  void detected_start(const flowlet::PacketRecord& p);
  void detected_end(std::uint32_t key);
  // Detector clock: picoseconds since agent construction (rebased so
  // the us -> ps conversion cannot overflow on a long-uptime host).
  [[nodiscard]] Time now_ps() const;

  AgentConfig cfg_;
  Transport* tr_;     // cfg_.transport, or the OS transport
  Clock* clock_;      // the transport's clock (all deadlines below)
  std::int64_t epoch_us_;
  std::unique_ptr<flowlet::FlowletDetector> detector_;
  int fd_ = -1;
  FrameParser parser_;
  FrameWriter writer_;
  std::vector<std::uint8_t> outbox_;
  std::size_t out_off_ = 0;
  std::unordered_map<std::uint32_t, FlowletState> flows_;
  RateCallback on_rate_;
  AgentStats stats_;
  std::unique_ptr<Metrics> m_;  // null when cfg.metrics is null
  std::int64_t last_poll_us_ = 0;
  std::uint64_t trace_start_count_ = 0;  // starts seen by the sampler
  std::uint64_t trace_seq_ = 0;          // per-agent trace id entropy
  TraceResult last_trace_;

  // Connection state machine + reconnect backoff.
  ConnState state_ = ConnState::kDisconnected;
  enum class Target : std::uint8_t { kNone, kTcp, kUnix };
  Target target_ = Target::kNone;  // remembered for re-dialing
  std::string target_host_;
  int target_port_ = -1;
  std::string target_path_;
  Rng backoff_rng_{1};
  std::int64_t cur_backoff_us_ = 0;   // 0 = next attempt starts at min
  std::int64_t last_backoff_us_ = 0;
  std::int64_t next_attempt_us_ = 0;
  std::int64_t disconnected_at_us_ = 0;
  std::int64_t degraded_since_us_ = 0;  // 0 = currently kConnected
  // Rate lease + fallback decay.
  std::uint32_t lease_us_ = 0;         // advertised by the service
  std::int64_t lease_deadline_us_ = 0;  // 0 = not armed
  std::int64_t next_decay_us_ = 0;
  // Allocator-epoch tracking. conn_gen_ counts became_connected calls;
  // epoch_adopt_gen_ remembers the generation at the last epoch
  // adoption, so an adoption with conn_gen_ unchanged means the epoch
  // advanced without a reconnect (warm restart behind a VIP) and the
  // flowlet replay that try_reconnect would have run must happen here.
  std::uint16_t observed_epoch_ = 0;
  bool epoch_seen_ = false;
  std::uint64_t conn_gen_ = 0;
  std::uint64_t epoch_adopt_gen_ = 0;
  // Registration-refresh pacing: virtual/real time of the last full
  // flowlet replay (any cause), so unacked flows re-replay at most once
  // per kReregisterPeriodUs.
  std::int64_t last_replay_us_ = 0;
  // Liveness clocks.
  std::int64_t last_rx_us_ = 0;
  std::int64_t last_hb_tx_us_ = 0;
  std::int64_t now_cache_us_ = 0;  // poll-entry stamp for sink callbacks
};

}  // namespace ft::net
