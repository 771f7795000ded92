#include "sim/sim_transport.h"

#include <cerrno>
#include <cstring>

#include "common/check.h"
#include "net/frame.h"
#include "obs/metrics.h"

namespace ft::sim {
namespace {

// SimTransport's event tags.
constexpr std::uint32_t kTagDeliver = 1;
constexpr std::uint32_t kTagNotify = 2;
constexpr std::uint32_t kTagConnect = 3;
constexpr std::uint32_t kTagFin = 4;
constexpr std::uint32_t kTagTimer = 5;

constexpr std::uint64_t pack_connect(int listener, int server_handle) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(listener))
          << 32) |
         static_cast<std::uint32_t>(server_handle);
}

}  // namespace

SimTransport::SimTransport(EventQueue& events, std::uint64_t seed)
    : events_(events), rng_(seed) {
  events_.bind_clock(&clock_);
}

SimTransport::~SimTransport() { events_.bind_clock(nullptr); }

int SimTransport::new_slot() {
  table_.emplace_back();
  return static_cast<int>(table_.size() - 1);
}

int SimTransport::listen_tcp(int port, bool /*listen_any*/,
                             int* bound_port) {
  if (port == 0) port = next_ephemeral_port_++;
  if (tcp_binds_.contains(port)) {
    errno = EADDRINUSE;
    return -1;
  }
  const int h = new_slot();
  table_.back().listener = std::make_unique<Listener>();
  table_.back().listener->port = port;
  tcp_binds_.emplace(port, h);
  if (bound_port != nullptr) *bound_port = port;
  return h;
}

int SimTransport::listen_unix(const std::string& path) {
  // Mirrors unix_listen: rebinding an existing path steals it.
  unix_binds_.erase(path);
  const int h = new_slot();
  table_.back().listener = std::make_unique<Listener>();
  table_.back().listener->path = path;
  unix_binds_.emplace(path, h);
  return h;
}

int SimTransport::connect_tcp(const std::string& /*host*/, int port) {
  const auto it = tcp_binds_.find(port);
  if (it == tcp_binds_.end()) {
    clear_next_dial();
    errno = ECONNREFUSED;
    return -1;
  }
  return dial(it->second);
}

int SimTransport::connect_unix(const std::string& path) {
  const auto it = unix_binds_.find(path);
  if (it == unix_binds_.end()) {
    clear_next_dial();
    errno = ECONNREFUSED;
    return -1;
  }
  return dial(it->second);
}

void SimTransport::clear_next_dial() {
  next_dial_link_set_ = false;
  next_up_carrier_ = nullptr;
  next_down_carrier_ = nullptr;
}

int SimTransport::dial(int listener_handle) {
  const SimLinkParams link =
      next_dial_link_set_ ? next_dial_link_ : default_link_;
  StreamCarrier* const up = next_up_carrier_;
  StreamCarrier* const down = next_down_carrier_;
  clear_next_dial();
  const int ch = new_slot();
  const int sh = new_slot();
  auto client = std::make_unique<Stream>();
  client->peer = sh;
  client->link = link;
  auto server = std::make_unique<Stream>();
  server->peer = ch;
  server->server_side = true;
  server->link = link;
  const auto carry = [this](Stream& s, int h, StreamCarrier* c) {
    if (c == nullptr) return;
    s.carried = std::make_unique<Carried>();
    s.carried->carrier = c;
    c->deliver = [this, h](std::int64_t n) { deliver_carried(h, n); };
  };
  carry(*client, ch, up);
  carry(*server, sh, down);
  table_[static_cast<std::size_t>(ch)].stream = std::move(client);
  table_[static_cast<std::size_t>(sh)].stream = std::move(server);
  live_streams_ += 2;
  ++stats_.conns_opened;
  // The SYN reaches the listener one propagation delay from now; any
  // bytes the client writes meanwhile arrive behind it.
  events_.schedule(events_.now() + link.latency_us * kMicrosecond, this,
                   kTagConnect, pack_connect(listener_handle, sh));
  return ch;
}

int SimTransport::accept(int listen_handle) {
  Listener* l = listener(listen_handle);
  FT_CHECK(l != nullptr);
  if (l->backlog.empty()) {
    errno = EAGAIN;
    return -1;
  }
  const int sh = l->backlog.front();
  l->backlog.pop_front();
  return sh;
}

std::int64_t SimTransport::read(int handle, void* buf, std::size_t len) {
  Stream* sp = stream(handle);
  FT_CHECK(sp != nullptr);
  Stream& s = *sp;
  if (s.reset) {
    errno = ECONNRESET;
    return -1;
  }
  const std::size_t avail = s.inbox.size() - s.inbox_off;
  if (avail > 0) {
    const std::size_t n = std::min(len, avail);
    std::memcpy(buf, s.inbox.data() + s.inbox_off, n);
    s.inbox_off += n;
    if (s.inbox_off == s.inbox.size()) {
      s.inbox.clear();
      s.inbox_off = 0;
    }
    // Reading freed receive-window space: the peer may be write-blocked.
    if (stream(s.peer) != nullptr) request_notify(s.peer);
    return static_cast<std::int64_t>(n);
  }
  if (s.peer_closed && s.in_flight == 0) return 0;  // clean EOF
  errno = EAGAIN;
  return -1;
}

std::int64_t SimTransport::write(int handle, const void* buf,
                                 std::size_t len) {
  Stream* sp = stream(handle);
  FT_CHECK(sp != nullptr);
  Stream& s = *sp;
  if (s.reset || s.peer_closed) {
    errno = EPIPE;
    return -1;
  }
  const Stream* pp = stream(s.peer);
  if (pp == nullptr) {
    errno = EPIPE;
    return -1;
  }
  const Stream& peer = *pp;
  const auto pending = static_cast<std::int64_t>(peer.inbox.size() -
                                                 peer.inbox_off) +
                       peer.in_flight;
  const auto space =
      static_cast<std::int64_t>(stream_buf_bytes_) - pending;
  if (space <= 0) {
    errno = EAGAIN;
    return -1;
  }
  const std::size_t n =
      std::min(len, static_cast<std::size_t>(space));
  const auto* p = static_cast<const std::uint8_t*>(buf);
  // Every byte accepted past this point is accounted to exactly one
  // fate (see the conservation identity in the header).
  stats_.bytes_accepted += static_cast<std::int64_t>(n);
  if (black_hole_) {
    stats_.bytes_blackholed += static_cast<std::int64_t>(n);
    if (lc_.blackholed != nullptr) lc_.blackholed->add(n);
    return static_cast<std::int64_t>(n);
  }
  if (!s.server_side && partition_up_) {
    stats_.bytes_partitioned_up += static_cast<std::int64_t>(n);
    if (lc_.partitioned_up != nullptr) lc_.partitioned_up->add(n);
    return static_cast<std::int64_t>(n);
  }
  if (s.server_side && partition_down_) {
    stats_.bytes_partitioned_down += static_cast<std::int64_t>(n);
    if (lc_.partitioned_down != nullptr) lc_.partitioned_down->add(n);
    return static_cast<std::int64_t>(n);
  }
  if (s.server_side && drop_down_frac_ > 0.0 && !s.raw_mode) {
    s.down_parse.insert(s.down_parse.end(), p, p + n);
    sieve_and_send(s);
  } else {
    send_segment(s, std::vector<std::uint8_t>(p, p + n));
  }
  return static_cast<std::int64_t>(n);
}

void SimTransport::send_segment(Stream& from,
                                std::vector<std::uint8_t> data) {
  if (data.empty()) return;
  Stream* peer = stream(from.peer);
  if (peer == nullptr || !peer->open) {
    // The peer closed (or vanished) before these bytes could ship; a
    // real kernel would discard them the same way, but here the loss
    // must be *named* or the conservation oracle fires.
    drop_closed(static_cast<std::int64_t>(data.size()));
    return;
  }
  const auto n = static_cast<std::int64_t>(data.size());
  peer->in_flight += n;
  if (from.carried != nullptr) {
    // The payload waits in order; only its length travels.
    from.carried->queue.insert(from.carried->queue.end(), data.begin(),
                               data.end());
    from.carried->carrier->send(n);
    return;
  }
  const Time start = std::max(events_.now(), from.link_free_at);
  from.link_free_at =
      start + tx_time(static_cast<std::int64_t>(data.size()),
                      from.link.bandwidth_bps);
  const Time arrive =
      from.link_free_at + from.link.latency_us * kMicrosecond;
  const std::uint64_t id = next_segment_++;
  segments_.emplace(id, Segment{from.peer, std::move(data)});
  events_.schedule(arrive, this, kTagDeliver, id);
}

void SimTransport::deliver_carried(int from_handle, std::int64_t n) {
  Stream* from = stream(from_handle);
  // A torn-down pair's carried bytes were counted as dropped then.
  if (from == nullptr) return;
  std::deque<std::uint8_t>& q = from->carried->queue;
  FT_CHECK(n >= 0 && n <= static_cast<std::int64_t>(q.size()));
  Stream* dp = stream(from->peer);
  FT_CHECK(dp != nullptr);  // pairs are erased together
  Stream& dst = *dp;
  dst.in_flight -= n;
  const auto end = q.begin() + static_cast<std::ptrdiff_t>(n);
  if (!dst.open || dst.reset) {
    drop_closed(n);
  } else {
    dst.inbox.insert(dst.inbox.end(), q.begin(), end);
    stats_.bytes_delivered += n;
    request_notify(from->peer);
  }
  q.erase(q.begin(), end);
}

void SimTransport::sieve_and_send(Stream& from) {
  // Cut complete length-prefixed frames, roll the seeded die per frame,
  // forward survivors. An unframeable stream falls back to verbatim
  // forwarding.
  std::size_t off = 0;
  std::vector<std::uint8_t> out;
  for (;;) {
    const std::size_t total =
        net::frame_size(std::span(from.down_parse).subspan(off));
    if (total == 0) break;
    if (total == net::kFrameMalformed) {
      from.raw_mode = true;
      out.insert(out.end(), from.down_parse.begin() +
                                static_cast<std::ptrdiff_t>(off),
                 from.down_parse.end());
      from.down_parse.clear();
      send_segment(from, std::move(out));
      return;
    }
    ++stats_.frames_down;
    if (rng_.uniform() < drop_down_frac_) {
      ++stats_.frames_dropped;
      stats_.bytes_dropped_sieve += static_cast<std::int64_t>(total);
      if (lc_.dropped_sieve != nullptr) lc_.dropped_sieve->add(total);
      count_dropped_records(&from.down_parse[off + net::kFrameHeaderBytes],
                            total - net::kFrameHeaderBytes);
    } else {
      out.insert(
          out.end(),
          from.down_parse.begin() + static_cast<std::ptrdiff_t>(off),
          from.down_parse.begin() +
              static_cast<std::ptrdiff_t>(off + total));
    }
    off += total;
  }
  from.down_parse.erase(
      from.down_parse.begin(),
      from.down_parse.begin() + static_cast<std::ptrdiff_t>(off));
  send_segment(from, std::move(out));
}

void SimTransport::close(int handle) {
  if (Listener* l = listener(handle)) {
    // Pending, never-accepted connections die with the listener.
    for (const int sh : l->backlog) close(sh);
    if (l->port >= 0) tcp_binds_.erase(l->port);
    if (!l->path.empty()) {
      const auto bit = unix_binds_.find(l->path);
      if (bit != unix_binds_.end() && bit->second == handle) {
        unix_binds_.erase(bit);
      }
    }
    table_[static_cast<std::size_t>(handle)].listener.reset();
    return;
  }
  Stream* sp = stream(handle);
  if (sp == nullptr) return;
  Stream& s = *sp;
  if (!s.open) return;
  s.open = false;
  s.watch = Watch{};
  s.ready_flag = nullptr;
  const Stream* peer = stream(s.peer);
  if (peer != nullptr && peer->open && !peer->reset) {
    // FIN ordering: it arrives behind every byte already written.
    const Time at = std::max(events_.now(), s.link_free_at) +
                    s.link.latency_us * kMicrosecond;
    events_.schedule(at, this, kTagFin,
                     static_cast<std::uint64_t>(
                         static_cast<std::uint32_t>(s.peer)));
  }
  maybe_erase_pair(handle);
}

void SimTransport::maybe_erase_pair(int handle) {
  const Stream* s = stream(handle);
  if (s == nullptr || s->open) return;
  const int peer_handle = s->peer;
  const Stream* peer = stream(peer_handle);
  if (peer != nullptr && peer->open) return;
  // Sieve parse residue (an incomplete trailing frame) and carried bytes
  // still in motion die with the pair; until now they counted as
  // stranded, so re-home them.
  drop_closed(residue(*s));
  if (peer != nullptr) {
    drop_closed(residue(*peer));
    table_[static_cast<std::size_t>(peer_handle)].stream.reset();
    --live_streams_;
  }
  table_[static_cast<std::size_t>(handle)].stream.reset();
  --live_streams_;
}

void SimTransport::drop_closed(std::int64_t n) {
  if (n <= 0) return;
  stats_.bytes_dropped_closed += n;
  if (lc_.dropped_closed != nullptr) {
    lc_.dropped_closed->add(static_cast<std::uint64_t>(n));
  }
}

void SimTransport::count_dropped_records(const std::uint8_t* payload,
                                         std::size_t len) {
  std::size_t off = 0;
  while (off < len) {
    std::size_t rec = 0;
    std::uint64_t* slot = nullptr;
    switch (static_cast<net::MsgType>(payload[off])) {
      case net::MsgType::kFlowletStart:
        slot = &stats_.records_dropped_start;
        rec = net::kStartRecordBytes;
        break;
      case net::MsgType::kFlowletEnd:
        slot = &stats_.records_dropped_end;
        rec = net::kEndRecordBytes;
        break;
      case net::MsgType::kRateUpdate:
        slot = &stats_.records_dropped_rate;
        rec = net::kRateRecordBytes;
        break;
      case net::MsgType::kTraceMark:
        slot = &stats_.records_dropped_trace;
        rec = net::kTraceRecordBytes;
        break;
      case net::MsgType::kHeartbeat:
        slot = &stats_.records_dropped_heartbeat;
        rec = net::kHeartbeatRecordBytes;
        break;
      default:
        break;
    }
    if (slot == nullptr || len - off < rec) {
      // Unknown tag or truncated trailing record: the rest of the frame
      // is one opaque loss (the sieve only checks the length prefix,
      // not record alignment).
      ++stats_.records_dropped_other;
      if (lc_.records_dropped != nullptr) lc_.records_dropped->add(1);
      return;
    }
    ++*slot;
    if (lc_.records_dropped != nullptr) lc_.records_dropped->add(1);
    off += rec;
  }
}

std::int64_t SimTransport::stranded_bytes() const {
  std::int64_t n = 0;
  for (const auto& [id, seg] : segments_) {
    n += static_cast<std::int64_t>(seg.data.size());
  }
  for (const Slot& slot : table_) {
    if (slot.stream != nullptr) n += residue(*slot.stream);
  }
  return n;
}

std::int64_t SimTransport::residue(const Stream& s) {
  std::size_t n = s.down_parse.size();
  if (s.carried != nullptr) n += s.carried->queue.size();
  return static_cast<std::int64_t>(n);
}

void SimTransport::bind_metrics(obs::MetricsRegistry& reg,
                                std::string_view prefix) {
  const std::string p(prefix);
  lc_.blackholed = &reg.counter(p + ".bytes_blackholed");
  lc_.partitioned_up = &reg.counter(p + ".bytes_partitioned_up");
  lc_.partitioned_down = &reg.counter(p + ".bytes_partitioned_down");
  lc_.dropped_sieve = &reg.counter(p + ".bytes_dropped_sieve");
  lc_.dropped_closed = &reg.counter(p + ".bytes_dropped_closed");
  lc_.records_dropped = &reg.counter(p + ".records_dropped");
}

void SimTransport::unlink_path(const std::string& path) {
  // ::unlink removes the name binding; an already-open listener keeps
  // serving, which the bind map can't express -- by this point the
  // listener is closed (service teardown order), so just drop the name.
  unix_binds_.erase(path);
}

void SimTransport::kill_all() {
  // Table order: victims reset in handle order on every run.
  for (std::size_t h = 1; h < table_.size(); ++h) {
    Stream* s = table_[h].stream.get();
    if (s == nullptr || s->reset || !s->open) continue;
    s->reset = true;
    if (!s->server_side) ++stats_.conns_reset;
    request_notify(static_cast<int>(h));
  }
}

SimTransport::Watch* SimTransport::watch_of(int handle) {
  if (Stream* s = stream(handle)) return &s->watch;
  if (Listener* l = listener(handle)) return &l->watch;
  return nullptr;
}

bool SimTransport::readable(const Stream& s) {
  return s.reset || s.inbox.size() > s.inbox_off ||
         (s.peer_closed && s.in_flight == 0);
}

bool SimTransport::readable(int handle) const {
  const Stream* s = stream(handle);
  return s != nullptr && readable(*s);
}

void SimTransport::set_ready_flag(int handle, bool* flag) {
  Stream* s = stream(handle);
  FT_CHECK(s != nullptr);
  s->ready_flag = flag;
}

std::uint32_t SimTransport::ready_mask(int handle) const {
  if (const Listener* l = listener(handle)) {
    const std::uint32_t m = l->backlog.empty() ? 0 : net::kEvRead;
    return m & l->watch.interest;
  }
  const Stream* sp = stream(handle);
  if (sp == nullptr) return 0;
  const Stream& s = *sp;
  std::uint32_t m = readable(s) ? net::kEvRead : 0;
  if (s.reset) {
    m |= net::kEvErr | net::kEvHup;
  } else if (!s.peer_closed) {
    if (const Stream* peer = stream(s.peer)) {
      const auto pending =
          static_cast<std::int64_t>(peer->inbox.size() - peer->inbox_off) +
          peer->in_flight;
      if (pending < static_cast<std::int64_t>(stream_buf_bytes_)) {
        m |= net::kEvWrite;
      }
    }
  }
  // Like epoll: ERR/HUP are always reported, everything else only on
  // interest.
  return m & (s.watch.interest | net::kEvErr | net::kEvHup);
}

void SimTransport::request_notify(int handle) {
  Watch* w = watch_of(handle);
  if (w == nullptr) return;
  if (w->loop == nullptr) {
    // Unwatched: whoever polls it learns through the flag, not an event.
    const Stream* s = stream(handle);
    if (s != nullptr && s->ready_flag != nullptr && readable(*s)) {
      *s->ready_flag = true;
    }
    return;
  }
  if (w->notify_pending || ready_mask(handle) == 0) return;
  w->notify_pending = true;
  events_.schedule(events_.now(), this, kTagNotify,
                   static_cast<std::uint64_t>(
                       static_cast<std::uint32_t>(handle)));
}

void SimTransport::on_event(std::uint32_t tag, std::uint64_t arg) {
  switch (tag) {
    case kTagDeliver: {
      auto node = segments_.extract(arg);
      if (node.empty()) return;
      Segment& seg = node.mapped();
      Stream* dp = stream(seg.dst);
      if (dp == nullptr) {
        // Destination pair already torn down while the segment was in
        // flight: the bytes die, but not silently.
        drop_closed(static_cast<std::int64_t>(seg.data.size()));
        return;
      }
      Stream& dst = *dp;
      dst.in_flight -= static_cast<std::int64_t>(seg.data.size());
      if (!dst.open || dst.reset) {
        // Bytes die at a closed door.
        drop_closed(static_cast<std::int64_t>(seg.data.size()));
        return;
      }
      dst.inbox.insert(dst.inbox.end(), seg.data.begin(),
                       seg.data.end());
      stats_.bytes_delivered += static_cast<std::int64_t>(seg.data.size());
      request_notify(seg.dst);
      // The sender's write-space shrank then grew back as this segment
      // left the window; if the *reader's* peer is write-blocked it
      // wakes when the reader drains (see read()).
      return;
    }
    case kTagNotify: {
      const int handle = static_cast<int>(static_cast<std::uint32_t>(arg));
      Watch* w = watch_of(handle);
      if (w == nullptr) return;
      w->notify_pending = false;
      if (w->loop == nullptr) return;
      const std::uint32_t mask = ready_mask(handle);
      if (mask == 0) return;
      // Copy: the callback may del_fd (and so destroy) its own watch.
      const net::IoLoop::FdCallback cb = w->cb;
      cb(mask);
      return;
    }
    case kTagConnect: {
      const int lh = static_cast<int>(arg >> 32);
      const int sh = static_cast<int>(static_cast<std::uint32_t>(arg));
      Stream* server = stream(sh);
      if (server == nullptr) return;
      Listener* l = listener(lh);
      if (l == nullptr) {
        // Listener closed while the SYN was in flight: refuse late.
        server->reset = true;
        if (Stream* client = stream(server->peer)) {
          client->reset = true;
          request_notify(server->peer);
        }
        return;
      }
      l->backlog.push_back(sh);
      request_notify(lh);
      return;
    }
    case kTagFin: {
      const int handle = static_cast<int>(static_cast<std::uint32_t>(arg));
      Stream* s = stream(handle);
      if (s == nullptr) return;
      s->peer_closed = true;
      request_notify(handle);
      return;
    }
    case kTagTimer: {
      const auto it = timers_.find(arg);
      if (it == timers_.end()) return;  // cancelled, or its loop is gone
      if (it->second.period_us > 0) {
        // Re-arm first (fixed period from the previous deadline): the
        // callback may cancel_timer, which then kills the re-armed
        // firing through the map lookup above.
        events_.schedule(events_.now() + it->second.period_us * kMicrosecond,
                         this, kTagTimer, arg);
        const net::IoLoop::TimerCallback cb = it->second.cb;
        cb();
        return;
      }
      const net::IoLoop::TimerCallback cb = std::move(it->second.cb);
      timers_.erase(it);
      cb();
      return;
    }
    default:
      FT_CHECK(false);
  }
}

net::IoLoop::TimerId SimTransport::add_timer(SimLoop* loop,
                                             std::int64_t delay_us,
                                             net::IoLoop::TimerCallback cb,
                                             std::int64_t period_us) {
  const net::IoLoop::TimerId id = next_timer_id_++;
  timers_.emplace(id, Timer{loop, std::move(cb), period_us});
  events_.schedule(events_.now() + delay_us * kMicrosecond, this, kTagTimer,
                   id);
  return id;
}

std::unique_ptr<net::IoLoop> SimTransport::make_loop() {
  return std::make_unique<SimLoop>(*this);
}

// --- SimLoop ---

SimLoop::~SimLoop() {
  // Watches and timers must not outlive the loop they dispatch into.
  for (const auto& [fd, _] : fds_) {
    if (SimTransport::Watch* w = tr_.watch_of(fd)) {
      if (w->loop == this) *w = SimTransport::Watch{};
    }
  }
  std::erase_if(tr_.timers_,
                [this](const auto& kv) { return kv.second.loop == this; });
}

void SimLoop::add_fd(int fd, std::uint32_t events, FdCallback cb) {
  SimTransport::Watch* w = tr_.watch_of(fd);
  FT_CHECK(w != nullptr);
  FT_CHECK(w->loop == nullptr);
  w->loop = this;
  w->cb = std::move(cb);
  w->interest = events;
  fds_.emplace(fd, true);
  tr_.request_notify(fd);
}

void SimLoop::mod_fd(int fd, std::uint32_t events) {
  SimTransport::Watch* w = tr_.watch_of(fd);
  FT_CHECK(w != nullptr && w->loop == this);
  w->interest = events;
  tr_.request_notify(fd);
}

void SimLoop::del_fd(int fd) {
  if (SimTransport::Watch* w = tr_.watch_of(fd)) {
    if (w->loop == this) *w = SimTransport::Watch{};
  }
  fds_.erase(fd);
}

net::IoLoop::TimerId SimLoop::add_timer(std::int64_t delay_us,
                                        TimerCallback cb) {
  return tr_.add_timer(this, std::max<std::int64_t>(delay_us, 0),
                       std::move(cb), 0);
}

net::IoLoop::TimerId SimLoop::add_periodic(std::int64_t period_us,
                                           TimerCallback cb) {
  FT_CHECK(period_us > 0);
  return tr_.add_timer(this, period_us, std::move(cb), period_us);
}

void SimLoop::cancel_timer(TimerId id) {
  const auto it = tr_.timers_.find(id);
  if (it != tr_.timers_.end() && it->second.loop == this) {
    tr_.timers_.erase(it);
  }
}

int SimLoop::run_once(std::int64_t max_wait_us) {
  EventQueue& q = tr_.events();
  const std::uint64_t before = q.processed();
  if (max_wait_us < 0) {
    // "Wait without cap": advance to the next event, if any.
    q.step();
  } else {
    q.run_until(q.now() + max_wait_us * kMicrosecond);
  }
  return static_cast<int>(q.processed() - before);
}

void SimLoop::run() {
  stop_ = false;
  while (!stop_ && tr_.events().step()) {
  }
}

}  // namespace ft::sim
