#include "net/server.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <span>

#include "common/check.h"
#include "common/wire.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ft::net {
namespace {

// Per-direction SPSC ring capacity of a shard with its own thread
// (entries).
constexpr std::size_t kShardQueueCapacity = 1 << 15;

// Registry counters are striped relaxed atomics: monotonic tallies,
// never used for synchronization.
void bump(obs::Counter& c) { c.add(1); }
void bump_by(obs::Counter& c, std::int64_t n) {
  c.add(static_cast<std::uint64_t>(n));
}
void bump_by(obs::Counter& c, std::uint64_t n) { c.add(n); }

void kick_eventfd(int fd) {
  const std::uint64_t one = 1;
  [[maybe_unused]] const auto n = ::write(fd, &one, sizeof one);
}

void drain_eventfd(int fd) {
  std::uint64_t v;
  while (::read(fd, &v, sizeof v) > 0) {
  }
}

// Process-global allocator-epoch source for cfg.epoch == 0: every
// service instance constructed in this process gets a fresh, strictly
// increasing epoch, so a daemon restart (new process) or an in-process
// warm restart both advance it. Starts at 1 -- epoch 0 on the wire
// means "unstamped" (agent-originated heartbeats).
std::atomic<std::uint16_t> g_next_epoch{0};

std::uint16_t claim_epoch() {
  std::uint16_t e = static_cast<std::uint16_t>(
      g_next_epoch.fetch_add(1, std::memory_order_relaxed) + 1);
  if (e == 0) e = static_cast<std::uint16_t>(
      g_next_epoch.fetch_add(1, std::memory_order_relaxed) + 1);
  return e;
}

}  // namespace

// Per-thread counter set (one for the allocation side, one per shard),
// unified onto the metrics registry: each member is a named registry
// counter (<prefix>.accepted, ...) resolved once here, so the same
// tallies serve both the stats() aggregate and the export plane.
struct AllocatorService::Counters {
  obs::Counter& accepted;
  obs::Counter& closed;
  obs::Counter& flowlet_starts;
  obs::Counter& flowlet_ends;
  obs::Counter& rejected_starts;
  obs::Counter& replayed_starts;
  obs::Counter& unknown_ends;
  obs::Counter& protocol_errors;
  obs::Counter& iterations;
  obs::Counter& updates_sent;
  obs::Counter& updates_coalesced;
  obs::Counter& frames_out;
  obs::Counter& queue_drops;
  obs::Counter& updates_orphaned;
  obs::Counter& heartbeats_sent;
  obs::Counter& heartbeats_received;
  obs::Counter& peer_timeouts;
  obs::Counter& recv_calls;
  obs::Counter& send_calls;
  obs::Counter& bytes_in;
  obs::Counter& bytes_out;
  obs::Counter& wire_bytes_out;

  Counters(obs::MetricsRegistry& reg, const std::string& p)
      : accepted(reg.counter(p + ".accepted")),
        closed(reg.counter(p + ".closed")),
        flowlet_starts(reg.counter(p + ".flowlet_starts")),
        flowlet_ends(reg.counter(p + ".flowlet_ends")),
        rejected_starts(reg.counter(p + ".rejected_starts")),
        replayed_starts(reg.counter(p + ".replayed_starts")),
        unknown_ends(reg.counter(p + ".unknown_ends")),
        protocol_errors(reg.counter(p + ".protocol_errors")),
        iterations(reg.counter(p + ".iterations")),
        updates_sent(reg.counter(p + ".updates_sent")),
        updates_coalesced(reg.counter(p + ".updates_coalesced")),
        frames_out(reg.counter(p + ".frames_out")),
        queue_drops(reg.counter(p + ".queue_drops")),
        updates_orphaned(reg.counter(p + ".updates_orphaned")),
        heartbeats_sent(reg.counter(p + ".heartbeats_sent")),
        heartbeats_received(reg.counter(p + ".heartbeats_received")),
        peer_timeouts(reg.counter(p + ".peer_timeouts")),
        recv_calls(reg.counter(p + ".recv_calls")),
        send_calls(reg.counter(p + ".send_calls")),
        bytes_in(reg.counter(p + ".bytes_in")),
        bytes_out(reg.counter(p + ".bytes_out")),
        wire_bytes_out(reg.counter(p + ".wire_bytes_out")) {}

  void add_to(ServiceStats& s) const {
    s.accepted += accepted.value();
    s.closed += closed.value();
    s.flowlet_starts += flowlet_starts.value();
    s.flowlet_ends += flowlet_ends.value();
    s.rejected_starts += rejected_starts.value();
    s.replayed_starts += replayed_starts.value();
    s.unknown_ends += unknown_ends.value();
    s.protocol_errors += protocol_errors.value();
    s.iterations += iterations.value();
    s.updates_sent += updates_sent.value();
    s.updates_coalesced += updates_coalesced.value();
    s.frames_out += frames_out.value();
    s.queue_drops += queue_drops.value();
    s.updates_orphaned += updates_orphaned.value();
    s.heartbeats_sent += heartbeats_sent.value();
    s.heartbeats_received += heartbeats_received.value();
    s.peer_timeouts += peer_timeouts.value();
    s.recv_calls += recv_calls.value();
    s.send_calls += send_calls.value();
    s.bytes_in += static_cast<std::int64_t>(bytes_in.value());
    s.bytes_out += static_cast<std::int64_t>(bytes_out.value());
    s.wire_bytes_out += static_cast<std::int64_t>(wire_bytes_out.value());
  }
};

// Shard -> allocation side: decoded flowlet lifecycle events. Starts
// carry the route resolved on the shard (link ids), so the allocation
// side only touches the allocator.
struct AllocatorService::UpEvent {
  enum class Kind : std::uint8_t { kStart, kEnd, kTrace, kRefresh };
  Kind kind = Kind::kEnd;
  std::uint8_t route_len = 0;
  std::uint16_t weight_milli = 1000;
  std::uint32_t key = 0;
  // Shard-local start-attempt tag echoed back in kReject, so a stale
  // reject cannot cancel a newer registration of the same key.
  std::uint64_t seq = 0;
  // kTrace payload: the agent's trace id + origin stamp, and the shard
  // ingest stamp taken when the mark came off the socket.
  std::uint64_t trace_id = 0;
  std::int64_t t_origin_ns = 0;
  std::int64_t t_ingest_ns = 0;
  std::array<std::uint32_t, core::kMaxRouteLinks> route{};
};

// Allocation side -> shard: accepted-connection handoff, rate updates
// for keys the shard owns, and start rejections (cross-shard duplicate
// keys) that undo the shard's tentative ownership.
struct AllocatorService::DownEvent {
  enum class Kind : std::uint8_t { kConn, kRate, kReject };
  Kind kind = Kind::kRate;
  std::uint16_t rate_code = 0;
  std::uint32_t key = 0;
  int fd = -1;
  std::uint64_t seq = 0;  // kReject: the start attempt being answered
};

// One endpoint connection. Routes decoded records straight into the
// service (MessageSink keeps the parser callback-free). Owned by exactly
// one shard; all its I/O happens on that shard's loop.
struct AllocatorService::Connection : MessageSink {
  AllocatorService* svc = nullptr;
  Shard* shard = nullptr;
  int fd = -1;
  FrameParser parser;
  FrameWriter writer;
  std::vector<std::uint8_t> outbox;
  std::size_t out_off = 0;
  bool epollout_armed = false;
  std::uint64_t coalesced_reported = 0;
  // Last instant the peer put bytes on the wire (agent heartbeats keep
  // this fresh even when no flowlets churn); heartbeat_tick culls the
  // connection once it falls peer_timeout_us behind.
  std::int64_t last_rx_us = 0;
  std::unordered_set<std::uint32_t> owned_keys;

  void on_flowlet_start(const core::FlowletStartMsg& m) override {
    svc->handle_start(*shard, *this, m);
  }
  void on_flowlet_end(const core::FlowletEndMsg& m) override {
    svc->handle_end(*shard, *this, m);
  }
  void on_trace_mark(const core::TraceMarkMsg& m) override {
    svc->handle_trace_mark(*shard, m);
  }
  void on_heartbeat(const core::HeartbeatMsg& m) override {
    svc->handle_heartbeat(*shard, m);
  }
  // Endpoints never send rate updates; MessageSink's default ignores
  // them, which keeps an agent bug from taking the service down.
};

// Ring delivery for a shard with its own thread: one SPSC ring per
// direction, the eventfd the shard's loop watches, and ring telemetry.
struct AllocatorService::Rings {
  Rings(obs::MetricsRegistry& reg, const std::string& prefix)
      : up(kShardQueueCapacity),
        down(kShardQueueCapacity),
        // Small on purpose: at most kMaxTraced echoes can be in flight,
        // and a full ring just drops the echo (counted), never the rate.
        trace_down(kMaxTraced),
        wake_fd(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK)),
        up_depth_hw(reg.gauge(prefix + ".up_depth_hw")),
        down_depth_hw(reg.gauge(prefix + ".down_depth_hw")),
        wakeup_us(reg.histo(prefix + ".wakeup_to_drain_us")) {
    FT_CHECK(wake_fd >= 0);
  }
  ~Rings() { ::close(wake_fd); }
  Rings(const Rings&) = delete;
  Rings& operator=(const Rings&) = delete;

  // Stamps the first kick of a kick->drain cycle; drain_up consumes the
  // stamp, so wakeup_us measures how long queued events waited for the
  // allocation thread to wake (scheduling + epoll dispatch). RAW clock
  // (obs::now_ns) like every other cross-thread trace delta.
  void note_kick() {
    std::int64_t expect = 0;
    kick_t_ns.compare_exchange_strong(expect, obs::now_ns(),
                                      std::memory_order_relaxed);
  }

  SpscQueue<UpEvent> up;      // shard -> allocation
  SpscQueue<DownEvent> down;  // allocation -> shard
  // Completed trace marks headed back to the agent, kept off the hot
  // DownEvent ring (a mark is 60 bytes; rate events stay 24). Drained
  // into the owner's open batch alongside the round's rate updates.
  SpscQueue<core::TraceMarkMsg> trace_down;
  int wake_fd;
  // Occupancy high-water marks after each push, and the latency from
  // the first pending eventfd kick to the allocation thread's drain.
  obs::Gauge& up_depth_hw;
  obs::Gauge& down_depth_hw;
  obs::LatencyHisto& wakeup_us;
  std::atomic<std::int64_t> kick_t_ns{0};  // 0 = no kick outstanding
  bool kick_pending = false;  // up events pushed since the last kick
};

// One I/O shard: a loop, the connections handed to it, and the key
// ownership map for those connections.
struct AllocatorService::Shard {
  int index = 0;
  IoLoop* loop = nullptr;
  std::unique_ptr<IoLoop> owned_loop;  // null: the caller's loop
  std::unique_ptr<Rings> rings;        // null: direct delivery
  // Key ownership: the owning connection plus the start-attempt tag. A
  // kReject only cancels the attempt whose tag it echoes -- the key may
  // have been ended and re-registered since, and that newer attempt
  // must survive.
  struct Owner {
    Connection* conn = nullptr;
    std::uint64_t seq = 0;
  };
  std::unordered_map<int, std::unique_ptr<Connection>> conns;
  FlatMap64<Owner> key_owner;
  std::uint64_t next_seq = 0;
  std::atomic<std::size_t> num_conns{0};
  std::unique_ptr<Counters> stats;  // net.shard<i>.* registry counters
  std::vector<int> touched;  // flush batching scratch
  // Heartbeat/peer-timeout tick (on the shard's loop). The fd snapshot
  // is reused scratch: flush_conn inside the tick can close_conn, so the
  // tick never iterates `conns` directly.
  IoLoop::TimerId hb_timer = 0;
  std::vector<int> hb_scratch;
  std::thread thread;  // runs `loop` when the shard has rings
};

AllocatorService::AllocatorService(IoLoop& loop, core::Allocator& alloc,
                                   const topo::ClosTopology& topo,
                                   ServerConfig cfg)
    : loop_(loop),
      alloc_(alloc),
      topo_(topo),
      cfg_(std::move(cfg)),
      tr_(cfg_.transport != nullptr ? cfg_.transport : &os_transport()),
      clock_(&tr_->clock()),
      epoch_(cfg_.epoch != 0 ? cfg_.epoch : claim_epoch()),
      flight_(cfg_.flight) {
  FT_CHECK(cfg_.tcp_port >= 0 || !cfg_.unix_path.empty());
  FT_CHECK(cfg_.num_shards >= 0);
  if (cfg_.metrics != nullptr) {
    metrics_ = cfg_.metrics;
  } else {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  alloc_stats_ = std::make_unique<Counters>(*metrics_, "net.alloc");
  ingest_us_ = &metrics_->histo("svc.ingest_us");
  fanout_us_ = &metrics_->histo("svc.fanout_us");
  round_us_ = &metrics_->histo("svc.round_us");
  trace_marks_ = &metrics_->counter("svc.trace_marks");
  trace_echoes_ = &metrics_->counter("svc.trace_echoes");
  trace_drops_ = &metrics_->counter("svc.trace_drops");
  traced_.reserve(kMaxTraced);
  traced_pending_.reserve(kMaxTraced);
  // Shard threads drive their own loops concurrently; on a transport
  // without threads every shard loop runs on the thread stepping it.
  const bool threads = cfg_.num_shards > 0 && tr_->supports_threads();
  if (threads) {
    alloc_wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    FT_CHECK(alloc_wake_fd_ >= 0);
    loop_.add_fd(alloc_wake_fd_, EPOLLIN, [this](std::uint32_t) {
      drain_eventfd(alloc_wake_fd_);
      for (auto& s : shards_) drain_up(*s);
    });
  }
  for (int i = 0; i < std::max(cfg_.num_shards, 1); ++i) {
    auto s = std::make_unique<Shard>();
    s->index = i;
    const std::string prefix = "net.shard" + std::to_string(i);
    s->stats = std::make_unique<Counters>(*metrics_, prefix);
    s->loop = &loop_;
    if (cfg_.num_shards > 0) {
      s->owned_loop = tr_->make_loop();
      s->owned_loop->bind_metrics(*metrics_, prefix);
      s->loop = s->owned_loop.get();
    }
    if (threads) {
      s->rings = std::make_unique<Rings>(*metrics_, prefix);
      Shard* sp = s.get();
      s->loop->add_fd(s->rings->wake_fd, EPOLLIN, [this, sp](std::uint32_t) {
        drain_eventfd(sp->rings->wake_fd);
        drain_down(*sp);
      });
    }
    // Armed before any shard thread exists, so the timer insertion
    // never races the loop.
    arm_heartbeat(*s);
    shards_.push_back(std::move(s));
  }
  touched_shards_.assign(shards_.size(), false);
  if (threads) {
    shard_cpu_map_ = core::CpuMap::make(cfg_.num_shards, cfg_.pin);
    for (auto& s : shards_) {
      Shard* sp = s.get();
      // Shard i co-schedules with FlowBlock row i (§6.1): same CpuMap
      // layout as the ParallelNed workers, so the row's solver thread
      // and the I/O shard serving its endpoints share a core.
      const int cpu = shard_cpu_map_.enabled()
                          ? shard_cpu_map_.cpu_for_row(sp->index)
                          : -1;
      sp->thread = std::thread([sp, cpu] {
        if (cpu >= 0) core::CpuMap::pin_current_thread(cpu);
        sp->loop->run();
      });
    }
  }
  if (cfg_.tcp_port >= 0) setup_tcp_listener();
  if (!cfg_.unix_path.empty()) setup_unix_listener();
  if (cfg_.iteration_period_us > 0) {
    iter_timer_ = loop_.add_periodic(cfg_.iteration_period_us,
                                     [this] { run_allocation_round(); });
  }
}

AllocatorService::~AllocatorService() {
  // Stop shard threads first; after the joins this thread owns every
  // shard. stopping_ turns any in-flight up() spin into a drop so a full
  // ring cannot wedge the join.
  stopping_.store(true, std::memory_order_release);
  for (auto& s : shards_) {
    if (s->thread.joinable()) s->loop->stop();
  }
  for (auto& s : shards_) {
    if (s->thread.joinable()) s->thread.join();
  }
  // Apply what the rings still hold, then retire them: the teardown
  // below runs on direct delivery. Accepted sockets still sitting in the
  // down ring as kConn handoffs were never adopted; close them here or
  // they leak.
  for (auto& s : shards_) {
    if (s->rings == nullptr) continue;
    while (!s->rings->up.empty()) drain_up(*s);
    DownEvent ev;
    while (s->rings->down.try_pop(ev)) {
      if (ev.kind == DownEvent::Kind::kConn) {
        tr_->close(ev.fd);
        bump(alloc_stats_->closed);
      } else if (ev.kind == DownEvent::Kind::kReject) {
        apply_down(*s, ev);
      }
    }
    s->loop->del_fd(s->rings->wake_fd);
    s->rings.reset();
  }
  // End everything the connections still own, exactly as if every
  // endpoint had closed: connections in `conns` order, keys in
  // `owned_keys` order (a restarted service reuses the allocator, whose
  // slot free list makes this order part of the trajectory).
  for (auto& s : shards_) {
    while (!s->conns.empty()) close_conn(*s, s->conns.begin()->first);
    if (s->hb_timer != 0) s->loop->cancel_timer(s->hb_timer);
  }
  // Anything still in key_shard_ lost its flowlet-end on the way here
  // (e.g. a kEnd dropped by up() while stopping): end it so the
  // caller-owned allocator is left clean. Only ring delivery loses ends,
  // so this walk's slot order never feeds a replayed (sim) trajectory.
  key_shard_.for_each([this](std::uint64_t key, std::uint32_t) {
    FT_CHECK(alloc_.flowlet_end(key));
    bump(alloc_stats_->flowlet_ends);
  });
  key_shard_.clear();
  if (iter_timer_ != 0) loop_.cancel_timer(iter_timer_);
  for (const auto& [fd, id] : accept_retry_timer_) loop_.cancel_timer(id);
  if (alloc_wake_fd_ >= 0) {
    loop_.del_fd(alloc_wake_fd_);
    ::close(alloc_wake_fd_);
  }
  for (const int fd : {tcp_listen_fd_, unix_listen_fd_}) {
    if (fd >= 0) {
      loop_.del_fd(fd);
      tr_->close(fd);
    }
  }
  if (!cfg_.unix_path.empty()) tr_->unlink_path(cfg_.unix_path);
}

void AllocatorService::setup_tcp_listener() {
  tcp_listen_fd_ =
      tr_->listen_tcp(cfg_.tcp_port, cfg_.listen_any, &tcp_port_);
  FT_CHECK(tcp_listen_fd_ >= 0);
  loop_.add_fd(tcp_listen_fd_, EPOLLIN,
               [this](std::uint32_t) { accept_ready(tcp_listen_fd_); });
}

void AllocatorService::setup_unix_listener() {
  unix_listen_fd_ = tr_->listen_unix(cfg_.unix_path);
  FT_CHECK(unix_listen_fd_ >= 0);
  loop_.add_fd(unix_listen_fd_, EPOLLIN,
               [this](std::uint32_t) { accept_ready(unix_listen_fd_); });
}

void AllocatorService::accept_ready(int listen_fd) {
  while (true) {
    const int fd = tr_->accept(listen_fd);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      if (errno == EMFILE || errno == ENFILE) {
        // Out of fds: the pending connection stays in the backlog and
        // keeps the listener level-triggered readable, which would spin
        // the loop at 100% CPU. Mute the listener and retry shortly.
        loop_.mod_fd(listen_fd, 0);
        accept_retry_timer_[listen_fd] =
            loop_.add_timer(100'000, [this, listen_fd] {
              if (loop_.watching(listen_fd)) {
                loop_.mod_fd(listen_fd, EPOLLIN);
              }
            });
        return;
      }
      return;  // transient accept failure; keep serving
    }
    if (listen_fd == tcp_listen_fd_) tr_->set_nodelay(fd);
    bump(alloc_stats_->accepted);
    // Round-robin handoff: the shard registers the fd on its own loop.
    Shard& s = *shards_[next_shard_];
    next_shard_ = (next_shard_ + 1) % shards_.size();
    if (down(s, {.kind = DownEvent::Kind::kConn, .fd = fd})) {
      wake(s);
    } else {
      tr_->close(fd);  // shard wedged at capacity; shed the connection
      bump(alloc_stats_->closed);  // keep accepted - closed = live
      bump(alloc_stats_->queue_drops);
    }
  }
}

void AllocatorService::adopt_conn(Shard& s, int fd) {
  if (cfg_.send_buffer_bytes > 0) {
    tr_->set_sndbuf(fd, cfg_.send_buffer_bytes);
  }
  auto conn = std::make_unique<Connection>();
  conn->svc = this;
  conn->shard = &s;
  conn->fd = fd;
  conn->last_rx_us = clock_->now_us();
  Connection* c = conn.get();
  s.conns.emplace(fd, std::move(conn));
  s.num_conns.store(s.conns.size(), std::memory_order_relaxed);
  s.loop->add_fd(
      fd, EPOLLIN,
      [this, &s, c](std::uint32_t ev) { conn_ready(s, *c, ev); });
}

void AllocatorService::conn_ready(Shard& s, Connection& c,
                                  std::uint32_t events) {
  const int fd = c.fd;  // c may be destroyed by close_conn below
  if (events & (EPOLLHUP | EPOLLERR)) {
    close_conn(s, fd);
    kick_alloc(s);
    return;
  }
  if (events & EPOLLOUT) {
    try_write(s, c);
    if (!s.conns.contains(fd)) {
      kick_alloc(s);
      return;
    }
  }
  if (events & EPOLLIN) {
    std::uint8_t buf[64 * 1024];
    while (true) {
      const std::int64_t n = tr_->read(c.fd, buf, sizeof buf);
      bump(s.stats->recv_calls);
      if (n > 0) {
        bump_by(s.stats->bytes_in, n);
        c.last_rx_us = clock_->now_us();
        if (!c.parser.feed({buf, static_cast<std::size_t>(n)}, c)) {
          bump(s.stats->protocol_errors);
          close_conn(s, c.fd);
          break;
        }
        if (static_cast<std::size_t>(n) < sizeof buf) break;
        continue;
      }
      if (n == 0) {
        close_conn(s, c.fd);
        break;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      close_conn(s, c.fd);
      break;
    }
  }
  kick_alloc(s);
}

bool AllocatorService::resolve_route(const core::FlowletStartMsg& m,
                                     UpEvent& ev) const {
  const auto hosts = topo_.num_hosts();
  if (m.src_host >= hosts || m.dst_host >= hosts ||
      m.src_host == m.dst_host) {
    return false;
  }
  const auto path = topo_.host_path(topo_.host(m.src_host),
                                    topo_.host(m.dst_host), m.flow_key);
  ev.route_len = 0;
  for (const LinkId l : path) {
    FT_CHECK(ev.route_len < core::kMaxRouteLinks);
    ev.route[ev.route_len++] = l.value();
  }
  return ev.route_len > 0;
}

void AllocatorService::handle_start(Shard& s, Connection& c,
                                    const core::FlowletStartMsg& m) {
  UpEvent ev;
  ev.key = m.flow_key;
  if (const Shard::Owner* owner = s.key_owner.find(m.flow_key)) {
    if (owner->conn == &c) {
      // Registration refresh: the owning agent re-sent the start, which
      // means it never saw a rate for this flow on this connection (the
      // update died in a fault window, or the original batch raced a
      // restart). Re-arm unconditional notification so the next round
      // re-emits the rate -- without this, the threshold filter would
      // starve the flow until its rate drifted.
      bump(s.stats->replayed_starts);
      ev.kind = UpEvent::Kind::kRefresh;
      up(s, ev);
      return;
    }
    // Owned by another connection (stale owner from a dying socket, or
    // a genuine duplicate key): reject as before. Once the dead owner
    // is culled its flows end, and the agent's next refresh wins.
    bump(s.stats->rejected_starts);
    return;
  }
  if (!resolve_route(m, ev)) {
    bump(s.stats->rejected_starts);
    return;
  }
  // Tentative ownership: the allocation side is the cross-shard
  // authority and sends kReject to undo a duplicate.
  s.key_owner.emplace(m.flow_key, Shard::Owner{&c, ++s.next_seq});
  c.owned_keys.insert(m.flow_key);
  ev.kind = UpEvent::Kind::kStart;
  ev.seq = s.next_seq;
  ev.weight_milli = m.weight_milli;
  up(s, ev);
}

void AllocatorService::handle_end(Shard& s, Connection& c,
                                  const core::FlowletEndMsg& m) {
  const Shard::Owner* owner = s.key_owner.find(m.flow_key);
  if (owner == nullptr || owner->conn != &c) {
    bump(s.stats->unknown_ends);
    return;
  }
  s.key_owner.erase(m.flow_key);
  c.owned_keys.erase(m.flow_key);
  up(s, {.kind = UpEvent::Kind::kEnd, .key = m.flow_key});
}

void AllocatorService::handle_trace_mark(Shard& s,
                                         const core::TraceMarkMsg& m) {
  bump(*trace_marks_);
  const std::int64_t t_ingest = obs::now_ns();
  // Only flows this shard owns can complete the loop (the mark follows
  // its flowlet_start in the same batch, so the tentative ownership is
  // already registered when it arrives).
  if (!s.key_owner.contains(m.flow_key)) {
    bump(*trace_drops_);
    return;
  }
  up(s, {.kind = UpEvent::Kind::kTrace,
         .key = m.flow_key,
         .trace_id = m.trace_id,
         .t_origin_ns = m.t_ns[core::kHopAgentSend],
         .t_ingest_ns = t_ingest});
}

void AllocatorService::handle_heartbeat(Shard& s,
                                        const core::HeartbeatMsg&) {
  // The payload is informational (agents advertise no lease); what
  // matters is the bytes themselves, which conn_ready already folded
  // into last_rx_us before the parser dispatched here.
  bump(s.stats->heartbeats_received);
}

void AllocatorService::arm_heartbeat(Shard& s) {
  if (cfg_.heartbeat_period_us <= 0 && cfg_.peer_timeout_us <= 0) return;
  // Dead-peer detection wants to fire a few times per timeout window
  // even when outbound heartbeats are off.
  std::int64_t period = cfg_.heartbeat_period_us;
  if (period <= 0) period = std::max<std::int64_t>(cfg_.peer_timeout_us / 4, 1);
  Shard* sp = &s;
  s.hb_timer = s.loop->add_periodic(period, [this, sp] {
    heartbeat_tick(*sp);
  });
}

void AllocatorService::heartbeat_tick(Shard& s) {
  const std::int64_t now = clock_->now_us();
  // Snapshot fds first: flushing a heartbeat can close_conn (dead
  // socket, outbox cap), and culling a timed-out peer certainly does.
  s.hb_scratch.clear();
  for (const auto& [fd, conn] : s.conns) s.hb_scratch.push_back(fd);
  for (const int fd : s.hb_scratch) {
    const auto it = s.conns.find(fd);
    if (it == s.conns.end()) continue;
    Connection& c = *it->second;
    if (cfg_.peer_timeout_us > 0 &&
        now - c.last_rx_us > cfg_.peer_timeout_us) {
      // Radio silence past the deadline: the endpoint is gone (agents
      // heartbeat whenever they are alive), so end its flows and free
      // the slots now rather than waiting out the TCP stack.
      bump(s.stats->peer_timeouts);
      close_conn(s, fd);
      continue;
    }
    if (cfg_.heartbeat_period_us > 0) {
      // Flushed immediately below: a batch the tick opens must not
      // linger if no round fanout ever touches this connection again.
      c.writer.add(core::HeartbeatMsg{
          obs::now_ns(), static_cast<std::uint32_t>(cfg_.rate_lease_us),
          epoch_});
      bump(s.stats->heartbeats_sent);
      flush_conn(s, c);
    }
  }
  kick_alloc(s);  // close_conn sent kEnd events up
}

void AllocatorService::queue_trace_echo(Shard& s, core::TraceMarkMsg mark) {
  const Shard::Owner* owner = s.key_owner.find(mark.flow_key);
  if (owner == nullptr) {  // flow ended while the echo was queued
    bump(*trace_drops_);
    return;
  }
  Connection& c = *owner->conn;
  if (c.writer.empty()) s.touched.push_back(c.fd);
  mark.t_ns[core::kHopFanoutWrite] = obs::now_ns();
  c.writer.add(mark);
  bump(*trace_echoes_);
  if (c.writer.pending_bytes() >= cfg_.flush_chunk_bytes) {
    flush_conn(s, c);
  }
}

void AllocatorService::apply_up(Shard& s, const UpEvent& ev) {
  ++round_churn_;
  const std::uint32_t* owner = key_shard_.find(ev.key);
  // Refresh, trace and end act only on a key this shard's start won: a
  // cross-shard duplicate was rejected, and its trace and end die with
  // it. FIFO delivery applied the kStart first.
  const bool won =
      owner != nullptr && *owner == static_cast<std::uint32_t>(s.index);
  switch (ev.kind) {
    case UpEvent::Kind::kStart:
      apply_start(s, ev, owner != nullptr);
      return;
    case UpEvent::Kind::kRefresh:
      if (won) alloc_.invalidate_notification(ev.key);
      return;
    case UpEvent::Kind::kTrace:
      if (!won || traced_.size() >= kMaxTraced) {
        bump(*trace_drops_);
      } else if (traced_.emplace(ev.key, TraceCtx{ev.trace_id,
                                                  ev.t_origin_ns,
                                                  ev.t_ingest_ns})) {
        traced_pending_.push_back(ev.key);
      }
      return;
    case UpEvent::Kind::kEnd:
      if (!won) {
        bump(alloc_stats_->unknown_ends);
        return;
      }
      FT_CHECK(alloc_.flowlet_end(ev.key));
      key_shard_.erase(ev.key);
      bump(alloc_stats_->flowlet_ends);
      if (!traced_.empty()) traced_.erase(ev.key);
      return;
  }
}

void AllocatorService::apply_start(Shard& s, const UpEvent& ev,
                                   bool taken) {
  std::array<LinkId, core::kMaxRouteLinks> route;
  for (std::uint8_t i = 0; i < ev.route_len; ++i) {
    route[i] = LinkId(ev.route[i]);
  }
  const double weight =
      1e9 * (ev.weight_milli == 0 ? 1000 : ev.weight_milli) / 1000.0;
  if (!taken &&
      alloc_.flowlet_start(
          ev.key, std::span<const LinkId>(route.data(), ev.route_len),
          core::Utility::log_utility(weight))) {
    key_shard_.emplace(ev.key, static_cast<std::uint32_t>(s.index));
    bump(alloc_stats_->flowlet_starts);
    return;
  }
  bump(alloc_stats_->rejected_starts);
  if (down(s, {.kind = DownEvent::Kind::kReject,
               .key = ev.key,
               .seq = ev.seq})) {
    wake(s);
  } else {
    // The shard keeps a stale owner entry until the connection
    // closes; ends for it resolve as unknown here.
    bump(alloc_stats_->queue_drops);
  }
}

void AllocatorService::apply_down(Shard& s, const DownEvent& ev) {
  switch (ev.kind) {
    case DownEvent::Kind::kConn:
      adopt_conn(s, ev.fd);
      return;
    case DownEvent::Kind::kRate:
      queue_update(s, ev.key, ev.rate_code);
      return;
    case DownEvent::Kind::kReject: {
      // Only cancel the exact attempt this reject answers (see
      // Shard::Owner).
      const Shard::Owner* owner = s.key_owner.find(ev.key);
      if (owner == nullptr || owner->seq != ev.seq) return;
      owner->conn->owned_keys.erase(ev.key);
      s.key_owner.erase(ev.key);
      return;
    }
  }
}

void AllocatorService::up(Shard& s, const UpEvent& ev) {
  if (s.rings == nullptr) {
    apply_up(s, ev);
    return;
  }
  Rings& r = *s.rings;
  // Lifecycle events are lossless: spin until the allocation thread
  // drains (it drains on every wakeup and at every round start). The
  // periodic re-kick covers an allocation thread parked in epoll_wait.
  std::uint32_t spins = 0;
  while (!r.up.try_push(ev)) {
    if (stopping_.load(std::memory_order_acquire)) {
      bump(s.stats->queue_drops);
      return;
    }
    if ((spins++ & 0x3FF) == 0) {
      r.note_kick();
      kick_eventfd(alloc_wake_fd_);
    }
    std::this_thread::yield();
  }
  r.kick_pending = true;
  r.up_depth_hw.update_max(static_cast<std::int64_t>(r.up.size_approx()));
}

bool AllocatorService::down(Shard& s, const DownEvent& ev) {
  if (s.rings == nullptr) {
    apply_down(s, ev);
    return true;
  }
  Rings& r = *s.rings;
  // Bounded: the shard may itself be blocked in up() waiting for us, so
  // the allocation thread must never wait forever. Every caller handles
  // a false return (dropped rate updates are re-armed through
  // invalidate_notification; a dropped kConn is closed; a dropped
  // kReject leaves a stale shard entry that conn close cleans up).
  for (std::uint32_t spin = 0; spin < (1u << 14); ++spin) {
    if (r.down.try_push(ev)) {
      const std::size_t depth = r.down.size_approx();
      r.down_depth_hw.update_max(static_cast<std::int64_t>(depth));
      round_down_hw_ = std::max(round_down_hw_, depth);
      return true;
    }
    if ((spin & 0xFF) == 0) kick_eventfd(r.wake_fd);
    std::this_thread::yield();
  }
  return false;
}

void AllocatorService::echo(Shard& s, const core::TraceMarkMsg& mark) {
  if (s.rings == nullptr) {
    queue_trace_echo(s, mark);
  } else if (!s.rings->trace_down.try_push(mark)) {
    bump(*trace_drops_);  // a full ring costs the echo, never the rate
  }
}

void AllocatorService::wake(Shard& s) {
  if (s.rings != nullptr) {
    kick_eventfd(s.rings->wake_fd);
  } else {
    // Direct kRate delivery queued batches; only a fanout queues any,
    // so waking after a kConn or kReject flushes nothing mid-parse.
    flush_touched(s);
  }
}

void AllocatorService::kick_alloc(Shard& s) {
  if (s.rings == nullptr || !s.rings->kick_pending) return;
  s.rings->kick_pending = false;
  s.rings->note_kick();
  kick_eventfd(alloc_wake_fd_);
}

void AllocatorService::drain_up(Shard& s) {
  if (s.rings == nullptr) return;  // direct delivery applied it all
  Rings& r = *s.rings;
  const std::int64_t t = r.kick_t_ns.exchange(0, std::memory_order_relaxed);
  if (t > 0) {
    const double us = static_cast<double>(obs::now_ns() - t) / 1000.0;
    r.wakeup_us.record_signed(static_cast<std::int64_t>(us));
    round_wakeup_max_us_ = std::max(round_wakeup_max_us_, us);
  }
  round_up_hw_ = std::max(round_up_hw_, r.up.size_approx());
  UpEvent ev;
  for (std::size_t n = 0; n < kUpDrainBudget; ++n) {
    if (!r.up.try_pop(ev)) return;
    apply_up(s, ev);
  }
  // More waiting: come back on the next wakeup. The loop runs due
  // timers in between, so rounds keep running under sustained ingress.
  if (!r.up.empty()) kick_eventfd(alloc_wake_fd_);
}

void AllocatorService::drain_down(Shard& s) {
  Rings& r = *s.rings;
  DownEvent ev;
  while (r.down.try_pop(ev)) apply_down(s, ev);
  // Echo completed trace marks after the rate drain so a mark lands
  // behind its flow's rate record when both arrive in the same cycle.
  core::TraceMarkMsg mark;
  while (r.trace_down.try_pop(mark)) queue_trace_echo(s, mark);
  flush_touched(s);
  kick_alloc(s);
}

void AllocatorService::queue_update(Shard& s, std::uint32_t key,
                                    std::uint16_t rate_code) {
  const Shard::Owner* owner = s.key_owner.find(key);
  if (owner == nullptr) {
    // Ended or culled while the update was in the ring: it dies here,
    // so the drop must be visible to the conservation oracle.
    bump(s.stats->updates_orphaned);
    return;
  }
  Connection& c = *owner->conn;
  if (c.writer.empty()) s.touched.push_back(c.fd);
  c.writer.add(core::RateUpdateMsg{key, rate_code, epoch_});
  bump(s.stats->updates_sent);
  // Cut the batch before it can overrun the frame size limit (an
  // endpoint may own arbitrarily many flows). flush_conn can close the
  // connection on a dead socket; lookups go through key_owner, which
  // close_conn scrubs, so the caller's iteration stays safe.
  if (c.writer.pending_bytes() >= cfg_.flush_chunk_bytes) {
    flush_conn(s, c);
  }
}

void AllocatorService::flush_touched(Shard& s) {
  // Batched push: one frame per endpoint per round/drain. Lookups go
  // back through conns because flush_conn may close (erase) a
  // connection, and a chunked flush in queue_update may have left a fd
  // in the list twice (harmless: the second visit sees an empty
  // writer).
  for (const int fd : s.touched) {
    const auto it = s.conns.find(fd);
    if (it != s.conns.end() && !it->second->writer.empty()) {
      flush_conn(s, *it->second);
    }
  }
  s.touched.clear();
}

void AllocatorService::run_allocation_round() {
  // Phase attribution: ingest (shard ring drain) -> solve + emit (timed
  // inside run_iteration as core.solve_us / core.emit_us) -> fanout
  // (update push + flush). round_us covers the whole thing; the
  // round_latency_us() ring keeps its historical meaning (post-ingest).
  // All stamps on the RAW trace clock (obs::now_ns) so the flight record
  // and the e2e trace hops line up exactly.
  const std::int64_t t_in = obs::now_ns();
  for (auto& s : shards_) drain_up(*s);
  const std::int64_t t0 = obs::now_ns();
  ingest_us_->record_signed((t0 - t_in) / 1000);
  if (!traced_pending_.empty()) {
    // Stamp the round-pickup hop for contexts that arrived since the
    // last round: this is the round whose solve their update rides.
    for (const std::uint32_t key : traced_pending_) {
      TraceCtx* ctx = traced_.find(key);
      if (ctx != nullptr && ctx->t_round_pickup_ns == 0) {
        ctx->t_round_pickup_ns = t0;
      }
    }
    traced_pending_.clear();
  }
  updates_scratch_.clear();
  alloc_.run_iteration(updates_scratch_);
  const std::int64_t t1 = obs::now_ns();
  bump(alloc_stats_->iterations);
  if (cfg_.stall_every_rounds > 0 &&
      (round_id_ + 1) % cfg_.stall_every_rounds == 0) {
    // Injected fault (see ServerConfig): burn stall_us inside the fanout
    // phase so the flight recorder has a known-slow round to promote.
    const std::int64_t until = obs::now_ns() + cfg_.stall_us * 1000;
    while (obs::now_ns() < until) {
    }
  }
  // Builds the echo for a traced flow whose first rate update is being
  // fanned out this round: service-side hops completed from the parked
  // context plus the allocator's solve/emit boundary stamps; the
  // fanout-write hop is stamped by whoever writes it into the batch.
  const auto make_echo = [this](std::uint32_t key, const TraceCtx& ctx) {
    const core::Allocator::RoundStamps& st = alloc_.last_round_stamps();
    core::TraceMarkMsg mark;
    mark.flow_key = key;
    mark.trace_id = ctx.trace_id;
    mark.t_ns[core::kHopAgentSend] = ctx.t_agent_send_ns;
    mark.t_ns[core::kHopShardIngest] = ctx.t_shard_ingest_ns;
    mark.t_ns[core::kHopRoundPickup] = ctx.t_round_pickup_ns;
    mark.t_ns[core::kHopSolveDone] = st.solve_end_ns;
    mark.t_ns[core::kHopEmitDone] = st.emit_end_ns;
    return mark;
  };
  std::fill(touched_shards_.begin(), touched_shards_.end(), false);
  for (const core::RateUpdate& u : updates_scratch_) {
    const auto key = static_cast<std::uint32_t>(u.key);
    const std::uint32_t* owner = key_shard_.find(key);
    if (owner == nullptr) {
      // No service flow owns the key (ended or culled since emission,
      // or registered on the allocator directly): the update dies here,
      // so the drop must be visible to the conservation oracle.
      bump(alloc_stats_->updates_orphaned);
      continue;
    }
    // Copied, not held: direct delivery is reentrant, and a flush that
    // drops a stalled peer erases its keys before down() returns.
    const std::uint32_t i = *owner;
    if (down(*shards_[i], {.kind = DownEvent::Kind::kRate,
                           .rate_code = u.rate_code,
                           .key = key})) {
      touched_shards_[i] = true;
      if (!traced_.empty()) {
        if (const TraceCtx* ctx = traced_.find(key)) {
          echo(*shards_[i], make_echo(key, *ctx));
          traced_.erase(key);
        }
      }
    } else {
      // The emitted update is gone and the allocator already recorded
      // it as notified; un-record it so the next round re-emits
      // instead of the endpoint keeping a stale rate until the
      // allocation drifts past the threshold again.
      alloc_.invalidate_notification(key);
      bump(alloc_stats_->queue_drops);
      ++round_queue_drops_;
    }
  }
  std::uint32_t batches = 0;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (touched_shards_[i]) {
      wake(*shards_[i]);
      ++batches;
    }
  }
  const std::int64_t t2 = obs::now_ns();
  fanout_us_->record_signed((t2 - t1) / 1000);
  round_us_->record_signed((t2 - t_in) / 1000);
  if (obs::PhaseTracer::enabled()) {
    obs::PhaseTracer::record("svc.ingest", t_in / 1000, (t0 - t_in) / 1000);
    obs::PhaseTracer::record("svc.fanout", t1 / 1000, (t2 - t1) / 1000);
  }
  record_round_latency(static_cast<double>(t2 - t0) / 1000.0);

  const core::Allocator::RoundStamps& st = alloc_.last_round_stamps();
  obs::RoundRecord rec;
  rec.round = round_id_++;
  rec.t_start_ns = t_in;
  rec.ingest_us = static_cast<double>(t0 - t_in) / 1000.0;
  rec.solve_us =
      static_cast<double>(st.solve_end_ns - st.solve_start_ns) / 1000.0;
  rec.emit_us =
      static_cast<double>(st.emit_end_ns - st.solve_end_ns) / 1000.0;
  rec.fanout_us = static_cast<double>(t2 - t1) / 1000.0;
  rec.round_us = static_cast<double>(t2 - t_in) / 1000.0;
  rec.wakeup_us = round_wakeup_max_us_;
  rec.band_max_us = alloc_.backend().last_band_max_us();
  rec.churn_events = round_churn_;
  rec.updates = static_cast<std::uint32_t>(updates_scratch_.size());
  rec.batches = batches;
  rec.queue_drops = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(round_queue_drops_, 0xFFFFFFFFu));
  rec.up_ring_hw = static_cast<std::uint16_t>(
      std::min<std::size_t>(round_up_hw_, 0xFFFF));
  rec.down_ring_hw = static_cast<std::uint16_t>(
      std::min<std::size_t>(round_down_hw_, 0xFFFF));
  flight_.record(rec);
  round_churn_ = 0;
  round_wakeup_max_us_ = 0.0;
  round_up_hw_ = 0;
  round_down_hw_ = 0;
  round_queue_drops_ = 0;
}

void AllocatorService::flush_conn(Shard& s, Connection& c) {
  const std::size_t framed = c.writer.flush(c.outbox);
  if (framed == 0) return;
  bump(s.stats->frames_out);
  bump_by(s.stats->bytes_out, static_cast<std::int64_t>(framed));
  bump_by(s.stats->wire_bytes_out,
          wire_bytes_tcp_stream(static_cast<std::int64_t>(framed)));
  const std::uint64_t coalesced = c.writer.stats().coalesced_updates;
  bump_by(s.stats->updates_coalesced, coalesced - c.coalesced_reported);
  c.coalesced_reported = coalesced;
  if (c.outbox.size() - c.out_off > cfg_.max_outbox_bytes) {
    // The peer has stopped reading; drop it rather than buffer forever.
    close_conn(s, c.fd);
    return;
  }
  try_write(s, c);
}

void AllocatorService::try_write(Shard& s, Connection& c) {
  while (c.out_off < c.outbox.size()) {
    const std::int64_t n = tr_->write(c.fd, c.outbox.data() + c.out_off,
                                      c.outbox.size() - c.out_off);
    bump(s.stats->send_calls);
    if (n > 0) {
      c.out_off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!c.epollout_armed) {
        s.loop->mod_fd(c.fd, EPOLLIN | EPOLLOUT);
        c.epollout_armed = true;
      }
      return;
    }
    if (n < 0 && errno == EINTR) continue;
    close_conn(s, c.fd);
    return;
  }
  c.outbox.clear();
  c.out_off = 0;
  if (c.epollout_armed) {
    s.loop->mod_fd(c.fd, EPOLLIN);
    c.epollout_armed = false;
  }
}

void AllocatorService::close_conn(Shard& s, int fd) {
  const auto it = s.conns.find(fd);
  if (it == s.conns.end()) return;
  Connection& c = *it->second;
  // The endpoint is gone: everything it owned ends now, exactly as if it
  // had sent flowlet-end for each key.
  for (const std::uint32_t key : c.owned_keys) {
    s.key_owner.erase(key);
    up(s, {.kind = UpEvent::Kind::kEnd, .key = key});
  }
  s.loop->del_fd(fd);
  tr_->close(fd);
  s.conns.erase(it);
  s.num_conns.store(s.conns.size(), std::memory_order_relaxed);
  bump(s.stats->closed);
}

ServiceStats AllocatorService::stats() const {
  ServiceStats out;
  alloc_stats_->add_to(out);
  for (const auto& s : shards_) s->stats->add_to(out);
  return out;
}

std::size_t AllocatorService::num_connections() const {
  std::size_t n = 0;
  for (const auto& s : shards_) {
    n += s->num_conns.load(std::memory_order_relaxed);
  }
  return n;
}

void AllocatorService::record_round_latency(double us) {
  round_lat_us_[round_lat_count_ % kLatencyCap] = us;
  ++round_lat_count_;
}

std::vector<double> AllocatorService::round_latency_us() const {
  std::vector<double> out;
  const std::uint64_t n = round_lat_count_;
  const std::uint64_t have = std::min<std::uint64_t>(n, kLatencyCap);
  out.reserve(have);
  for (std::uint64_t i = n - have; i < n; ++i) {
    out.push_back(round_lat_us_[i % kLatencyCap]);
  }
  return out;
}

}  // namespace ft::net
