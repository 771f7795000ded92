// SimTransport: the net::Transport seam backed by the discrete-event
// queue instead of the kernel.
//
// Handles are table ids over in-memory duplex streams. A write is cut
// into delivery events on the shared sim::EventQueue: bytes leave the
// writer no faster than the stream's configured bandwidth (a
// serialization cursor per direction, exactly like sim::Link) and land
// in the peer's inbox one configured latency later. Readiness is
// delivered through SimLoop -- an IoLoop whose timers and fd callbacks
// are all queue events -- so the *real* AllocatorService and
// EndpointAgent run unmodified on virtual time. A caller that polls
// many handles instead of watching them (every notify on a loop is an
// event) binds a flag to each with set_ready_flag(): the transport
// raises it whenever the unwatched handle turns readable, without
// scheduling anything, and readable() reads the level. A 10k-endpoint
// control plane converges in seconds of wall clock, and two runs with
// the same seed replay bit-identically (single thread, seeded RNG,
// seq-ordered event ties, a handle-indexed table walked in handle
// order).
//
// This is the control plane's one fault layer: every drill (tests,
// benches, chaos campaigns) injects its faults here, on virtual time:
//   - set_drop_down_frac: a seeded fraction of service->agent *frames*
//     vanish in flight (whole frames, never mid-record: the sieve cuts
//     at net::frame_size boundaries, so parsers keep working);
//   - set_black_hole: writes succeed but bytes evaporate (the silent
//     partition leases exist for);
//   - set_partition_up / set_partition_down: the black hole's one-way
//     cousins -- only agent->service (up) or service->agent (down)
//     bytes evaporate, the other direction flows normally. One-way
//     loss is the nastier failure: the side that can still hear keeps
//     believing the conversation is healthy;
//   - kill_all: every established stream resets at once -- reads give
//     ECONNRESET, writes EPIPE -- driving agents into reconnect backoff
//     (a virtual-time reconnect storm).
//
// Every byte write() accepts is accounted to exactly one fate, so the
// chaos harness can assert conservation as an exact identity:
//
//   bytes_accepted == bytes_delivered + bytes_blackholed
//                   + bytes_partitioned_up + bytes_partitioned_down
//                   + bytes_dropped_sieve + bytes_dropped_closed
//                   + stranded_bytes()
//
// where stranded_bytes() is what is still legitimately in motion
// (segments in flight, carried bytes not yet delivered and sieve parse
// residue). Any silent loss path breaks the identity and trips the
// conservation oracle. Faults, the stream buffer and this accounting
// act before a StreamCarrier (below) is involved, so carried streams
// get them unchanged.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/time.h"
#include "net/transport.h"
#include "sim/event_queue.h"

namespace ft::obs {
class Counter;
}  // namespace ft::obs

namespace ft::sim {

// Per-stream shaping (one instance per direction).
struct SimLinkParams {
  std::int64_t latency_us = 5;
  double bandwidth_bps = 10e9;
};

struct SimTransportStats {
  std::uint64_t conns_opened = 0;
  std::uint64_t conns_reset = 0;     // kill_all victims
  std::uint64_t frames_down = 0;     // frames sieved on drop-enabled dirs
  std::uint64_t frames_dropped = 0;  // of those, injected drops
  // Byte fates. bytes_accepted is everything write() returned success
  // for (post receive-window clamp); the rest partition it exhaustively
  // together with stranded_bytes() -- see the conservation identity in
  // the header comment.
  std::int64_t bytes_accepted = 0;
  std::int64_t bytes_delivered = 0;        // landed in a peer inbox
  std::int64_t bytes_blackholed = 0;       // two-way black hole
  std::int64_t bytes_partitioned_up = 0;   // one-way: agent->service
  std::int64_t bytes_partitioned_down = 0; // one-way: service->agent
  std::int64_t bytes_dropped_sieve = 0;    // whole frames the sieve cut
  std::int64_t bytes_dropped_closed = 0;   // died at a closed/gone peer
  // Record types inside sieve-dropped frames (drop *accounting*, not
  // just drop *counting*: the conservation oracle demands every lost
  // record shows up under a name).
  std::uint64_t records_dropped_start = 0;
  std::uint64_t records_dropped_end = 0;
  std::uint64_t records_dropped_rate = 0;
  std::uint64_t records_dropped_trace = 0;
  std::uint64_t records_dropped_heartbeat = 0;
  std::uint64_t records_dropped_other = 0;  // unknown tag / malformed tail
};

// Carries one stream direction's bytes in place of the fixed-latency
// link. SimTransport calls send(n) for every segment it ships and keeps
// the payload in the sender's in-order queue; the carrier calls
// `deliver(n)` once the next n bytes arrived in order, and they move to
// the peer's inbox then (ns-2's TcpApp model). SimTransport sets
// `deliver` when it dials; the carrier must not call it once the
// transport is gone.
struct StreamCarrier {
  StreamCarrier() = default;
  StreamCarrier(const StreamCarrier&) = delete;  // the transport holds it
  StreamCarrier& operator=(const StreamCarrier&) = delete;
  virtual ~StreamCarrier() = default;
  virtual void send(std::int64_t bytes) = 0;
  std::function<void(std::int64_t)> deliver;
};

class SimLoop;

class SimTransport final : public net::Transport, public EventHandler {
 public:
  explicit SimTransport(EventQueue& events, std::uint64_t seed = 1);
  ~SimTransport() override;
  SimTransport(const SimTransport&) = delete;
  SimTransport& operator=(const SimTransport&) = delete;

  // --- net::Transport ---
  [[nodiscard]] Clock& clock() override { return clock_; }
  int connect_tcp(const std::string& host, int port) override;
  int connect_unix(const std::string& path) override;
  int listen_tcp(int port, bool listen_any, int* bound_port) override;
  int listen_unix(const std::string& path) override;
  int accept(int listen_handle) override;
  [[nodiscard]] std::int64_t read(int handle, void* buf,
                                  std::size_t len) override;
  [[nodiscard]] std::int64_t write(int handle, const void* buf,
                                   std::size_t len) override;
  void close(int handle) override;
  void set_nodelay(int /*handle*/) override {}
  void set_sndbuf(int /*handle*/, int /*bytes*/) override {}
  void unlink_path(const std::string& path) override;
  [[nodiscard]] std::unique_ptr<net::IoLoop> make_loop() override;
  [[nodiscard]] bool supports_threads() const override { return false; }

  // --- configuration ---
  // Default shaping for both directions of future connections.
  void set_default_link(const SimLinkParams& p) { default_link_ = p; }
  // One-shot override for the next connect_* call (per-endpoint
  // heterogeneous links without threading params through AgentConfig).
  void set_next_dial_link(const SimLinkParams& p) {
    next_dial_link_ = p;
    next_dial_link_set_ = true;
  }
  // One-shot carriers for the next connect_* call: `up` carries the
  // client->server direction, `down` server->client; null leaves that
  // direction on the link. A carrier serves one connection.
  void set_next_dial_carriers(StreamCarrier* up, StreamCarrier* down) {
    next_up_carrier_ = up;
    next_down_carrier_ = down;
  }
  // Bytes a stream direction may hold un-read + in flight before writes
  // return EAGAIN (the SO_SNDBUF/receive-window analogue).
  void set_stream_buf_bytes(std::size_t n) { stream_buf_bytes_ = n; }

  // --- faults ---
  // Fraction of frames written by *accept-side* handles (service ->
  // agent) silently dropped, whole frames at a time.
  void set_drop_down_frac(double f) { drop_down_frac_ = f; }
  void set_black_hole(bool on) { black_hole_ = on; }
  // One-way partitions: writes in the affected direction succeed but
  // the bytes evaporate; the opposite direction is untouched. "Up" is
  // the client->server direction (agent -> allocator), "down" is
  // server->client (allocator -> agent). Both may be on at once (then
  // equivalent to a black hole, but accounted per direction).
  void set_partition_up(bool on) { partition_up_ = on; }
  void set_partition_down(bool on) { partition_down_ = on; }
  // Reset storm: every established stream dies now (ECONNRESET/EPIPE);
  // listeners survive so re-dials succeed.
  void kill_all();

  // --- readiness for unwatched streams ---
  // True when read(handle) would not fail with EAGAIN: bytes waiting,
  // EOF (FIN with nothing in flight) or a reset. False for a handle
  // that is not a live stream.
  [[nodiscard]] bool readable(int handle) const;
  // Binds `flag` to stream `handle` (null unbinds): while no loop
  // watches the handle, every path that can make it readable (a
  // delivery, a FIN, kill_all, a refused connect) sets *flag = true if
  // it is readable then, and schedules no event. The transport never
  // clears the flag; close() unbinds it. `flag` must outlive the
  // binding.
  void set_ready_flag(int handle, bool* flag);

  // Mirrors the drop/fault counters into named obs:: counters (e.g.
  // "<prefix>.bytes_dropped_sieve") so simulated loss is visible on the
  // same metrics plane as production loss. Call once at setup; the
  // registry must outlive the transport.
  void bind_metrics(obs::MetricsRegistry& reg, std::string_view prefix);

  [[nodiscard]] const SimTransportStats& stats() const { return stats_; }
  // Bytes legitimately still in motion: segments scheduled but not yet
  // delivered, carried bytes their carrier has not delivered, plus sieve
  // parse residue awaiting a complete frame. Closes the conservation
  // identity (see header comment).
  [[nodiscard]] std::int64_t stranded_bytes() const;
  // Live streams (both ends of every pair not yet torn down), not
  // handles ever issued.
  [[nodiscard]] std::size_t num_streams() const { return live_streams_; }
  [[nodiscard]] EventQueue& events() { return events_; }
  [[nodiscard]] VirtualClock& virtual_clock() { return clock_; }

  // EventHandler: delivery / readiness / backlog events, and SimLoop
  // timer firings.
  void on_event(std::uint32_t tag, std::uint64_t arg) override;

 private:
  friend class SimLoop;

  // A SimLoop timer. Timers live here, and their events name the
  // transport, because the transport outlives its loops: ~SimLoop erases
  // its own timers, and the event of an erased timer finds nothing.
  struct Timer {
    SimLoop* loop = nullptr;
    net::IoLoop::TimerCallback cb;
    std::int64_t period_us = 0;  // 0 = one-shot
  };

  struct Watch {
    SimLoop* loop = nullptr;
    net::IoLoop::FdCallback cb;
    std::uint32_t interest = 0;
    bool notify_pending = false;
  };

  // A carried direction: its carrier and the bytes sent through it that
  // have not been delivered yet, oldest first.
  struct Carried {
    StreamCarrier* carrier = nullptr;
    std::deque<std::uint8_t> queue;
  };

  struct Stream {
    int peer = -1;
    bool server_side = false;  // created by accept (service end)
    bool open = true;          // close() not yet called locally
    bool peer_closed = false;  // peer's FIN arrived
    bool reset = false;        // kill_all victim
    std::vector<std::uint8_t> inbox;
    std::size_t inbox_off = 0;
    std::int64_t in_flight = 0;  // bytes scheduled toward this inbox
    Time link_free_at = 0;       // serialization cursor for *our* writes
    SimLinkParams link;
    // Frame sieve state for drop injection (server-side writers only).
    std::vector<std::uint8_t> down_parse;
    bool raw_mode = false;
    // Set when this direction rides a carrier (null on the link).
    std::unique_ptr<Carried> carried;
    Watch watch;
    bool* ready_flag = nullptr;  // see set_ready_flag
  };

  struct Listener {
    std::deque<int> backlog;  // server-side handles awaiting accept()
    int port = -1;            // -1 for unix listeners
    std::string path;
    Watch watch;
  };

  struct Segment {
    int dst = -1;
    std::vector<std::uint8_t> data;
  };

  // One handle's entry in the table: a stream, a listener, or neither
  // (closed, never reused). Both live behind a pointer so a Stream&
  // stays valid while a callback dials and the table grows.
  struct Slot {
    std::unique_ptr<Stream> stream;
    std::unique_ptr<Listener> listener;
  };

  // Issues the next handle: a fresh, empty slot at the end of the table.
  int new_slot();
  // The live stream / listener behind `handle`, or null (never issued,
  // closed, or the other kind). A negative handle casts to a huge index
  // and fails the bounds check.
  [[nodiscard]] Stream* stream(int handle) const {
    const auto h = static_cast<std::size_t>(handle);
    return h < table_.size() ? table_[h].stream.get() : nullptr;
  }
  [[nodiscard]] Listener* listener(int handle) const {
    const auto h = static_cast<std::size_t>(handle);
    return h < table_.size() ? table_[h].listener.get() : nullptr;
  }
  int dial(int listener_handle);
  // Forgets the one-shot dial overrides (link and carriers).
  void clear_next_dial();
  // Moves the next n carried bytes of `from_handle` to its peer's inbox.
  void deliver_carried(int from_handle, std::int64_t n);
  // Bytes a stream still holds for its peer: carried bytes in motion
  // plus sieve parse residue.
  [[nodiscard]] static std::int64_t residue(const Stream& s);
  net::IoLoop::TimerId add_timer(SimLoop* loop, std::int64_t delay_us,
                                 net::IoLoop::TimerCallback cb,
                                 std::int64_t period_us);
  // Schedules `data` from stream `from` toward its peer.
  void send_segment(Stream& from, std::vector<std::uint8_t> data);
  // Cuts whole frames out of from.down_parse, rolling the drop die.
  void sieve_and_send(Stream& from);
  // Accounts bytes that died at a closed or vanished peer.
  void drop_closed(std::int64_t n);
  // Attributes each record in a sieve-dropped frame payload to its
  // per-type drop counter.
  void count_dropped_records(const std::uint8_t* payload, std::size_t len);
  [[nodiscard]] static bool readable(const Stream& s);
  [[nodiscard]] std::uint32_t ready_mask(int handle) const;
  // Schedules a readiness dispatch if the handle is watched, ready and
  // none is pending; raises the ready flag of a readable unwatched one.
  void request_notify(int handle);
  void maybe_erase_pair(int handle);
  [[nodiscard]] Watch* watch_of(int handle);

  EventQueue& events_;
  VirtualClock clock_;
  Rng rng_;
  SimLinkParams default_link_;
  SimLinkParams next_dial_link_;
  bool next_dial_link_set_ = false;
  StreamCarrier* next_up_carrier_ = nullptr;
  StreamCarrier* next_down_carrier_ = nullptr;
  std::size_t stream_buf_bytes_ = 1 << 20;
  double drop_down_frac_ = 0.0;
  bool black_hole_ = false;
  bool partition_up_ = false;
  bool partition_down_ = false;
  SimTransportStats stats_;
  // Named-counter mirrors for loss paths; null until bind_metrics.
  struct LossCounters {
    obs::Counter* blackholed = nullptr;
    obs::Counter* partitioned_up = nullptr;
    obs::Counter* partitioned_down = nullptr;
    obs::Counter* dropped_sieve = nullptr;
    obs::Counter* dropped_closed = nullptr;
    obs::Counter* records_dropped = nullptr;
  };
  LossCounters lc_;

  std::uint64_t next_segment_ = 1;
  // The handle table, indexed by handle (slot 0 is never issued).
  // Handles only grow, so walking it visits handles in increasing order
  // -- kill_all's victim order is the same on every run -- and an event
  // naming a torn-down handle finds an empty slot, never a successor.
  std::vector<Slot> table_ = std::vector<Slot>(1);
  std::size_t live_streams_ = 0;
  std::unordered_map<int, int> tcp_binds_;  // port -> listener handle
  std::unordered_map<std::string, int> unix_binds_;
  std::unordered_map<std::uint64_t, Segment> segments_;
  std::unordered_map<net::IoLoop::TimerId, Timer> timers_;
  net::IoLoop::TimerId next_timer_id_ = 1;
  int next_ephemeral_port_ = 40000;
};

// IoLoop over the shared EventQueue: timers are queue events, fd
// readiness arrives from SimTransport. run_once(max_wait) advances
// virtual time by up to max_wait microseconds (never busy-waits);
// run() drains until stop() or the queue empties. Any number of loops
// may share one transport; destroying a loop drops its watches and
// pending timers.
class SimLoop final : public net::IoLoop {
 public:
  explicit SimLoop(SimTransport& tr) : tr_(tr) {}
  ~SimLoop() override;
  SimLoop(const SimLoop&) = delete;
  SimLoop& operator=(const SimLoop&) = delete;

  void add_fd(int fd, std::uint32_t events, FdCallback cb) override;
  void mod_fd(int fd, std::uint32_t events) override;
  void del_fd(int fd) override;
  [[nodiscard]] bool watching(int fd) const override {
    return fds_.contains(fd);
  }
  TimerId add_timer(std::int64_t delay_us, TimerCallback cb) override;
  TimerId add_periodic(std::int64_t period_us, TimerCallback cb) override;
  void cancel_timer(TimerId id) override;
  using net::IoLoop::run_once;
  int run_once(std::int64_t max_wait_us) override;
  void run() override;
  void stop() override { stop_ = true; }
  void bind_metrics(obs::MetricsRegistry& /*reg*/,
                    std::string_view /*prefix*/) override {}

 private:
  SimTransport& tr_;
  std::unordered_map<int, bool> fds_;  // handles registered via this loop
  bool stop_ = false;
};

}  // namespace ft::sim
