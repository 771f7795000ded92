// AllocatorService: the Flowtune allocator as a network service (§6.2,
// §7). Endpoint agents connect over TCP or a Unix-domain socket and send
// flowlet start/end notifications; the service resolves each flowlet's
// ECMP route through the Clos topology, registers it with the
// core::Allocator, runs the allocation iteration on a periodic timer, and
// pushes thresholded rate updates back -- batched and coalesced per
// endpoint, and only to the endpoint that owns the flow.
//
// The service scales across cores by sharding its I/O (§5 applied to the
// control plane). Every connection is owned by a Shard: a loop, the
// connections handed to it, and the key ownership map for them. Accept
// stays on the caller's loop (one listener), which also runs the
// allocation rounds and is the cross-shard authority on keys. Shards
// turn decoded records into UpEvents the allocation side applies
// (flowlet start and end, registration refresh, trace mark); the
// allocation side sends DownEvents the shards apply (connection
// handoff, rate update, start reject). Each event kind has one handler,
// and shards differ only in how events are delivered:
//   - num_shards == 0: one shard on the caller's loop;
//   - num_shards = N on a transport with threads: N shard threads, each
//     with a private loop, fed through per-shard SPSC rings with eventfd
//     wakeups and no lock on the hot path;
//   - num_shards = N on the sim transport: N shard loops that the one
//     event queue steps, deterministically.
// A shard with its own thread takes the rings; any other shard has its
// events applied by direct call, in the same FIFO order.
//
// Flow ownership is tracked by flow key (the wire-level 32-bit id), never
// by allocator slot index: NumProblem recycles slots through its free
// list on every flowlet end, so keys are the only stable handle across
// churn.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/flat_map.h"
#include "core/allocator.h"
#include "core/cpu_map.h"
#include "net/frame.h"
#include "net/spsc_queue.h"
#include "net/transport.h"
#include "obs/flight.h"
#include "topo/clos.h"

namespace ft::obs {
class Counter;
class LatencyHisto;
class MetricsRegistry;
}  // namespace ft::obs

namespace ft::net {

// Up events (flowlet starts, ends, ...) the allocation thread applies
// from one threaded shard's ring per wakeup or round, so that sustained
// ingress cannot keep it from running its rounds.
inline constexpr std::size_t kUpDrainBudget = 1024;

struct ServerConfig {
  // The transport/clock seam the service runs on. Null = the
  // process-wide OS transport (real sockets + EpollLoop). The
  // virtual-time harness passes a sim::SimTransport, whose shard loops
  // all run on the thread stepping its event queue.
  Transport* transport = nullptr;
  // TCP listener: port >= 0 enables it (0 = kernel-assigned, see
  // tcp_port()). Listens on 127.0.0.1 unless listen_any is set.
  int tcp_port = -1;
  bool listen_any = false;
  // Unix-domain listener: non-empty path enables it (unlinked first).
  std::string unix_path;
  // Allocation round period; <= 0 disables the timer (drive rounds
  // manually with run_allocation_round, e.g. from tests).
  std::int64_t iteration_period_us = 100;
  // Outgoing frames are cut at this payload size, so a round touching
  // arbitrarily many of one endpoint's flows emits several frames
  // instead of overrunning kMaxFramePayload.
  std::size_t flush_chunk_bytes = 64 * 1024;
  // A peer that stops reading gets dropped once this much output is
  // buffered for it (close_conn ends its flowlets cleanly); without the
  // cap a stalled endpoint grows the outbox by one frame per round.
  std::size_t max_outbox_bytes = 4 * 1024 * 1024;
  // SO_SNDBUF for accepted sockets; 0 = kernel default. A small value
  // bounds kernel-side buffering so the max_outbox_bytes cap (not the
  // kernel) is what governs a stalled reader.
  int send_buffer_bytes = 0;
  // I/O sharding: 0 = one shard on the caller's loop; N >= 1 = N shards
  // with loops of their own (a thread each where the transport supports
  // threads), connections assigned round-robin.
  int num_shards = 0;
  // §6.1 co-scheduling: pin shard thread i to the CPU of FlowBlock row i
  // (same CpuMap layout the ParallelNed workers use), so the I/O shard
  // serving a block row shares that row's core and cache. Run one shard
  // per block row for the paper's mapping. No-op when disabled.
  core::CpuMapConfig pin;
  // Telemetry sink (src/obs/). When null the service owns a private
  // registry; stats() aggregates from the registry either way. The
  // daemon passes a shared registry so the net.* / svc.* metrics land on
  // its stats socket next to the allocator's core.* metrics.
  obs::MetricsRegistry* metrics = nullptr;
  // Always-on flight recorder tuning (obs/flight.h): per-round black-box
  // ring sizes and the adaptive promotion threshold.
  obs::FlightRecorder::Config flight;
  // Liveness + leases (tentpoles 2/3). heartbeat_period_us > 0 sends a
  // HeartbeatMsg to every connection each period from the shard that
  // owns it; the beacon proves the allocation plane alive to flows
  // whose thresholded rate never changes. rate_lease_us rides on those
  // heartbeats: the agent holds any applied rate at most that long
  // past the last heartbeat/update before decaying to its fallback, so
  // a dead allocator can never pin a stale allocation (leases require
  // heartbeats to be advertised). peer_timeout_us > 0 closes
  // connections that sent nothing (agents heartbeat too) for that
  // long, ending their flows and freeing their slots in O(heartbeat)
  // rather than O(TCP timeout). All 0 by default (pre-recovery wire
  // behaviour).
  std::int64_t heartbeat_period_us = 0;
  std::int64_t rate_lease_us = 0;
  std::int64_t peer_timeout_us = 0;
  // Allocator epoch stamped into every outgoing heartbeat and rate
  // update. 0 = take the next value from a process-global counter (each
  // service instance in this process gets a fresh, increasing epoch --
  // the production restart path). The virtual-time harness passes an
  // explicit epoch (1 + restart count) so trajectories stay bit-identical
  // across runs regardless of what else the process constructed.
  std::uint16_t epoch = 0;
  // Fault injection for flight-recorder forensics tests and demos: every
  // `stall_every_rounds`-th allocation round busy-spins for `stall_us`
  // microseconds inside the fanout phase, forcing a promotable slow
  // round with a known phase attribution. 0 = disabled.
  std::uint64_t stall_every_rounds = 0;
  std::int64_t stall_us = 0;
};

struct ServiceStats {
  std::uint64_t accepted = 0;
  std::uint64_t closed = 0;
  std::uint64_t flowlet_starts = 0;
  std::uint64_t flowlet_ends = 0;
  std::uint64_t rejected_starts = 0;  // duplicate key or bad host index
  // Duplicate starts from the key's own live connection: a registration
  // refresh (the agent never saw a rate for the flow on this
  // connection, e.g. the update died in a fault window). The flow's
  // notification state is invalidated so the next round re-emits its
  // rate unconditionally.
  std::uint64_t replayed_starts = 0;
  std::uint64_t unknown_ends = 0;
  std::uint64_t protocol_errors = 0;  // malformed streams (conn dropped)
  std::uint64_t iterations = 0;
  std::uint64_t updates_sent = 0;
  std::uint64_t updates_coalesced = 0;
  std::uint64_t frames_out = 0;
  // Events dropped on a persistently full shard ring (overload): rate
  // updates (re-armed so the next round re-emits them), shed connection
  // handoffs (the socket is closed, counted in `closed` too), dropped
  // start rejections (a stale shard owner entry lingers until its
  // connection closes), and lifecycle events abandoned during shutdown.
  std::uint64_t queue_drops = 0;
  // Rate updates that found no owner connection for their key (flow
  // ended or connection culled between emission and queueing). Counted,
  // never silent: the chaos conservation oracle audits this path.
  std::uint64_t updates_orphaned = 0;
  std::uint64_t heartbeats_sent = 0;
  std::uint64_t heartbeats_received = 0;
  std::uint64_t peer_timeouts = 0;  // conns culled for radio silence
  std::uint64_t recv_calls = 0;     // recv(2) invocations across shards
  std::uint64_t send_calls = 0;     // send(2) invocations across shards
  std::int64_t bytes_in = 0;        // stream bytes received
  std::int64_t bytes_out = 0;       // stream bytes queued out (framed)
  std::int64_t wire_bytes_out = 0;  // common/wire.h accounting
};

class AllocatorService {
 public:
  AllocatorService(IoLoop& loop, core::Allocator& alloc,
                   const topo::ClosTopology& topo, ServerConfig cfg);
  ~AllocatorService();
  AllocatorService(const AllocatorService&) = delete;
  AllocatorService& operator=(const AllocatorService&) = delete;

  // Actual TCP port after binding (meaningful when cfg.tcp_port >= 0).
  [[nodiscard]] int tcp_port() const { return tcp_port_; }
  // The allocator epoch this instance stamps into heartbeats and rate
  // updates (cfg.epoch, or the auto-assigned process-global value).
  [[nodiscard]] std::uint16_t epoch() const { return epoch_; }
  [[nodiscard]] const std::string& unix_path() const {
    return cfg_.unix_path;
  }

  // One allocation round: pending shard events applied, allocator
  // iteration, normalized thresholded rate updates pushed to their
  // owning endpoints through the owning shard.
  // Runs on the iteration timer when cfg.iteration_period_us > 0; must
  // be called from the thread driving the caller's loop.
  void run_allocation_round();

  // Aggregated snapshot across the allocation thread and all shards
  // (relaxed counters: safe to call from any thread while serving).
  [[nodiscard]] ServiceStats stats() const;
  // The registry this service records into (cfg.metrics, or the private
  // one): per-shard net.shard<i>.* I/O counters, ring high-water gauges
  // and wakeup latency, plus the svc.* round-phase histograms.
  [[nodiscard]] obs::MetricsRegistry& metrics() const { return *metrics_; }
  [[nodiscard]] std::size_t num_connections() const;
  // Number of I/O shards, the one on the caller's loop included.
  [[nodiscard]] int num_shards() const {
    return static_cast<int>(shards_.size());
  }
  // Shard -> CPU layout in use ("" when pinning is disabled).
  [[nodiscard]] std::string pinning() const {
    return shard_cpu_map_.describe();
  }

  // Wall-clock microseconds of recent allocation rounds (iteration +
  // update fan-out), most recent last, up to an internal cap. Written by
  // the allocation thread; read it while rounds are quiescent.
  [[nodiscard]] std::vector<double> round_latency_us() const;

  // The always-on per-round flight recorder (obs/flight.h). Written by
  // the allocation thread each round; read it from that thread (the
  // stats socket's `flight` verb shares the caller's loop, so the
  // daemon serializes naturally).
  [[nodiscard]] const obs::FlightRecorder& flight() const {
    return flight_;
  }

 private:
  struct Connection;
  struct Counters;
  struct Rings;
  struct Shard;
  struct UpEvent;
  struct DownEvent;

  void setup_tcp_listener();
  void setup_unix_listener();
  void accept_ready(int listen_fd);

  // Shard side (the shard's loop): connection I/O, and the handlers that
  // turn decoded records into UpEvents and apply DownEvents.
  void adopt_conn(Shard& s, int fd);
  void conn_ready(Shard& s, Connection& c, std::uint32_t events);
  void handle_start(Shard& s, Connection& c,
                    const core::FlowletStartMsg& m);
  void handle_end(Shard& s, Connection& c, const core::FlowletEndMsg& m);
  // A trace mark rode in behind a sampled flowlet_start: stamp the shard
  // ingest hop and forward the context to the allocation side.
  void handle_trace_mark(Shard& s, const core::TraceMarkMsg& m);
  void handle_heartbeat(Shard& s, const core::HeartbeatMsg& m);
  // Arms the per-shard heartbeat/peer-timeout timer (on the shard's own
  // loop; called before its thread starts) and the periodic tick: one
  // heartbeat per connection, silent peers culled.
  void arm_heartbeat(Shard& s);
  void heartbeat_tick(Shard& s);
  void apply_down(Shard& s, const DownEvent& ev);
  // Appends an echo mark to the flow owner's open batch, stamping the
  // fanout-write hop.
  void queue_trace_echo(Shard& s, core::TraceMarkMsg mark);
  // Queues one rate update for the shard's owner of `key` (no-op when
  // the flow ended meanwhile), cutting the batch at flush_chunk_bytes;
  // touched connections are flushed together by flush_touched.
  void queue_update(Shard& s, std::uint32_t key, std::uint16_t rate_code);
  void flush_touched(Shard& s);
  // Frames the connection's pending batch and writes as much as the
  // socket accepts; the rest waits for EPOLLOUT.
  void flush_conn(Shard& s, Connection& c);
  void try_write(Shard& s, Connection& c);
  void close_conn(Shard& s, int fd);
  // Resolves the ECMP route of a start message into `ev`; false on bad
  // hosts.
  bool resolve_route(const core::FlowletStartMsg& m, UpEvent& ev) const;

  // Allocation side (the caller's loop).
  void apply_up(Shard& s, const UpEvent& ev);
  // `taken`: another start already holds the key.
  void apply_start(Shard& s, const UpEvent& ev, bool taken);

  // Delivery, the one place where shards differ: a shard with rings
  // pushes and kicks, any other applies by direct call.
  void up(Shard& s, const UpEvent& ev);      // shard -> allocation
  bool down(Shard& s, const DownEvent& ev);  // allocation -> shard
  void echo(Shard& s, const core::TraceMarkMsg& mark);
  void wake(Shard& s);        // have the shard flush what down() queued
  void kick_alloc(Shard& s);  // shard thread: wake the allocation thread
  // Allocation thread: applies at most kUpDrainBudget of the shard's up
  // events, re-kicking itself while more wait.
  void drain_up(Shard& s);
  void drain_down(Shard& s);  // shard thread
  void record_round_latency(double us);

  IoLoop& loop_;
  core::Allocator& alloc_;
  const topo::ClosTopology& topo_;
  ServerConfig cfg_;
  Transport* tr_;  // cfg_.transport, or the OS transport
  Clock* clock_;   // the transport's clock (all liveness deadlines)
  std::uint16_t epoch_ = 0;  // stamped into heartbeats + rate updates
  int tcp_listen_fd_ = -1;
  int unix_listen_fd_ = -1;
  int tcp_port_ = -1;
  IoLoop::TimerId iter_timer_ = 0;
  int alloc_wake_fd_ = -1;  // shards kick this to get their rings drained
  std::vector<std::unique_ptr<Shard>> shards_;
  core::CpuMap shard_cpu_map_;  // shard index -> CPU (§6.1 co-scheduling)
  std::size_t next_shard_ = 0;  // round-robin accept assignment
  // Allocation-side view: which shard owns each live flow key.
  FlatMap64<std::uint32_t> key_shard_;
  // End-to-end trace contexts awaiting their echo (allocation thread).
  // A sampled flowlet_start parks its origin + ingest stamps here; the
  // first rate update emitted for the flow carries the completed mark
  // back to the agent, then the entry is erased (also erased on
  // flowlet_end). Bounded: inserts beyond kMaxTraced are dropped and
  // counted in svc.trace_drops.
  struct TraceCtx {
    std::uint64_t trace_id = 0;
    std::int64_t t_agent_send_ns = 0;
    std::int64_t t_shard_ingest_ns = 0;
    std::int64_t t_round_pickup_ns = 0;  // 0 until a round picks it up
  };
  static constexpr std::size_t kMaxTraced = 512;
  FlatMap64<TraceCtx> traced_;
  // Keys inserted into traced_ since the last round; the next round
  // stamps their pickup hop without walking the whole table.
  std::vector<std::uint32_t> traced_pending_;
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;  // when cfg has none
  obs::MetricsRegistry* metrics_ = nullptr;
  // Allocation-round phase histograms (svc.*; allocation thread only).
  obs::LatencyHisto* ingest_us_ = nullptr;  // drain_up at round start
  obs::LatencyHisto* fanout_us_ = nullptr;  // update push + flush
  obs::LatencyHisto* round_us_ = nullptr;   // full round incl. ingest
  // Trace-mark accounting (striped counters: any thread).
  obs::Counter* trace_marks_ = nullptr;   // marks received from agents
  obs::Counter* trace_echoes_ = nullptr;  // marks echoed back
  obs::Counter* trace_drops_ = nullptr;   // contexts/echoes dropped
  std::unique_ptr<Counters> alloc_stats_;

  // Flight recorder state (allocation thread). The per-round scratch
  // accumulates between rounds (up events also apply on eventfd
  // wakeups or by direct call) and resets after each RoundRecord is cut.
  obs::FlightRecorder flight_;
  std::uint64_t round_id_ = 0;
  std::uint32_t round_churn_ = 0;        // up events applied since record
  double round_wakeup_max_us_ = 0.0;     // worst kick->drain this round
  std::size_t round_up_hw_ = 0;          // max up-ring depth at drain
  std::size_t round_down_hw_ = 0;        // max down-ring depth at push
  std::uint64_t round_queue_drops_ = 0;  // fanout pushes dropped
  std::atomic<bool> stopping_{false};
  std::vector<core::RateUpdate> updates_scratch_;
  std::vector<bool> touched_shards_;
  // One pending accept-retry timer per listener fd (overwritten on
  // re-arm; the previous one-shot has always fired by then).
  std::unordered_map<int, IoLoop::TimerId> accept_retry_timer_;

  static constexpr std::size_t kLatencyCap = 8192;
  std::array<double, kLatencyCap> round_lat_us_{};
  std::uint64_t round_lat_count_ = 0;
};

}  // namespace ft::net
