#include "sim/sim_proxy.h"

#include <cerrno>
#include <cstring>
#include <string>

#include "common/check.h"
#include "net/frame.h"
#include "obs/metrics.h"

namespace ft::sim {
namespace {

// Moves complete length-prefixed frames from `parse` to `ready`. An
// unframeable stream flips to raw mode (verbatim pass-through).
void cut_frames(std::vector<std::uint8_t>& parse,
                std::vector<std::uint8_t>& ready, bool& raw) {
  if (raw) {
    ready.insert(ready.end(), parse.begin(), parse.end());
    parse.clear();
    return;
  }
  std::size_t off = 0;
  for (;;) {
    const std::size_t total = net::frame_size(std::span(parse).subspan(off));
    if (total == 0) break;
    if (total == net::kFrameMalformed) {
      raw = true;
      ready.insert(ready.end(),
                   parse.begin() + static_cast<std::ptrdiff_t>(off),
                   parse.end());
      parse.clear();
      return;
    }
    ready.insert(ready.end(),
                 parse.begin() + static_cast<std::ptrdiff_t>(off),
                 parse.begin() + static_cast<std::ptrdiff_t>(off + total));
    off += total;
  }
  parse.erase(parse.begin(), parse.begin() + static_cast<std::ptrdiff_t>(off));
}

}  // namespace

SimProxy::SimProxy(net::Transport& tr, const Config& cfg)
    : tr_(tr), cfg_(cfg), loop_(tr.make_loop()) {
  listen_fd_ = tr_.listen_tcp(cfg_.listen_port, true, &port_);
  FT_CHECK(listen_fd_ >= 0);
  loop_->add_fd(listen_fd_, net::kEvRead,
                [this](std::uint32_t m) { on_listener_ready(m); });
}

SimProxy::~SimProxy() {
  while (!sessions_.empty()) teardown(sessions_.begin()->first);
  if (listen_fd_ >= 0) {
    loop_->del_fd(listen_fd_);
    tr_.close(listen_fd_);
  }
}

void SimProxy::bind_metrics(obs::MetricsRegistry& reg,
                            std::string_view prefix) {
  resync_counter_ =
      &reg.counter(std::string(prefix) + ".bytes_discarded_resync");
  close_counter_ =
      &reg.counter(std::string(prefix) + ".bytes_discarded_on_close");
}

void SimProxy::on_listener_ready(std::uint32_t /*mask*/) {
  for (;;) {
    const int cfd = tr_.accept(listen_fd_);
    if (cfd < 0) return;  // EAGAIN: backlog drained
    ++stats_.clients_accepted;
    auto [it, inserted] = sessions_.emplace(cfd, Session{});
    FT_CHECK(inserted);
    Session& s = it->second;
    s.client_fd = cfd;
    loop_->add_fd(cfd, net::kEvRead,
                  [this, cfd](std::uint32_t m) { on_client_ready(cfd, m); });
    dial_upstream(s);
  }
}

void SimProxy::dial_upstream(Session& s) {
  const int ufd = tr_.connect_tcp("vip-upstream", cfg_.upstream_port);
  if (ufd < 0) {
    // Nothing bound (the allocator is mid-restart): try again shortly.
    arm_redial(s);
    return;
  }
  s.upstream_fd = ufd;
  upstream_owner_.emplace(ufd, s.client_fd);
  ++stats_.upstream_dials;
  if (s.had_upstream) ++stats_.upstream_redials;
  s.had_upstream = true;
  const int cfd = s.client_fd;
  loop_->add_fd(ufd, net::kEvRead,
                [this, cfd](std::uint32_t m) { on_upstream_ready(cfd, m); });
  // Frames buffered while the upstream was down ship to the new one.
  if (!flush(ufd, s.up, &stats_.bytes_up)) {
    lose_upstream(s);
    arm_redial(s);
    return;
  }
  update_interest(s);
}

void SimProxy::arm_redial(Session& s) {
  if (s.redial_timer != 0) return;
  const int cfd = s.client_fd;
  s.redial_timer = loop_->add_timer(cfg_.redial_delay_us, [this, cfd] {
    const auto it = sessions_.find(cfd);
    if (it == sessions_.end()) return;
    it->second.redial_timer = 0;
    if (it->second.upstream_fd < 0) dial_upstream(it->second);
  });
}

void SimProxy::lose_upstream(Session& s) {
  ++stats_.upstream_losses;
  if (s.upstream_fd >= 0) {
    loop_->del_fd(s.upstream_fd);
    tr_.close(s.upstream_fd);
    upstream_owner_.erase(s.upstream_fd);
    s.upstream_fd = -1;
  }
  // A partial frame from the dead upstream can never complete; forward-
  // ing it would desync the client's parser. Discard -- and count.
  if (!s.down.parse.empty()) {
    const auto n = static_cast<std::int64_t>(s.down.parse.size());
    stats_.bytes_discarded_resync += n;
    if (resync_counter_ != nullptr) {
      resync_counter_->add(static_cast<std::uint64_t>(n));
    }
    s.down.parse.clear();
  }
}

void SimProxy::teardown(int client_fd) {
  const auto it = sessions_.find(client_fd);
  if (it == sessions_.end()) return;
  Session& s = it->second;
  if (s.redial_timer != 0) loop_->cancel_timer(s.redial_timer);
  if (s.upstream_fd >= 0) {
    loop_->del_fd(s.upstream_fd);
    tr_.close(s.upstream_fd);
    upstream_owner_.erase(s.upstream_fd);
  }
  loop_->del_fd(s.client_fd);
  tr_.close(s.client_fd);
  ++stats_.clients_closed;
  // Residue and unwritten frames in both directions die with the
  // session: count them, like the resync residue.
  const std::size_t n = s.up.parse.size() + s.up.ready.size() +
                        s.down.parse.size() + s.down.ready.size();
  stats_.bytes_discarded_on_close += static_cast<std::int64_t>(n);
  if (close_counter_ != nullptr && n > 0) close_counter_->add(n);
  sessions_.erase(it);
}

bool SimProxy::pump_in(int fd, Pipe& p) {
  std::uint8_t buf[16384];
  bool alive = true;
  for (;;) {
    const std::int64_t n = tr_.read(fd, buf, sizeof buf);
    if (n > 0) {
      p.parse.insert(p.parse.end(), buf, buf + n);
      continue;
    }
    if (n == 0) {
      alive = false;  // clean EOF
      break;
    }
    if (errno == EAGAIN) break;
    alive = false;  // ECONNRESET or similar
    break;
  }
  cut_frames(p.parse, p.ready, p.raw);
  return alive;
}

bool SimProxy::flush(int fd, Pipe& p, std::int64_t* forwarded) {
  bool alive = true;
  while (p.ready_off < p.ready.size()) {
    const std::int64_t n = tr_.write(fd, p.ready.data() + p.ready_off,
                                     p.ready.size() - p.ready_off);
    if (n > 0) {
      p.ready_off += static_cast<std::size_t>(n);
      *forwarded += n;
      continue;
    }
    if (errno == EAGAIN) break;  // window full; resume on writable
    alive = false;               // EPIPE: sink is gone
    break;
  }
  if (p.ready_off > 0) {
    p.ready.erase(p.ready.begin(),
                  p.ready.begin() + static_cast<std::ptrdiff_t>(p.ready_off));
    p.ready_off = 0;
  }
  return alive;
}

void SimProxy::update_interest(Session& s) {
  std::uint32_t ci = net::kEvRead;
  if (!s.down.ready.empty()) ci |= net::kEvWrite;
  loop_->mod_fd(s.client_fd, ci);
  if (s.upstream_fd >= 0) {
    std::uint32_t ui = net::kEvRead;
    if (!s.up.ready.empty()) ui |= net::kEvWrite;
    loop_->mod_fd(s.upstream_fd, ui);
  }
}

void SimProxy::on_client_ready(int client_fd, std::uint32_t mask) {
  const auto it = sessions_.find(client_fd);
  if (it == sessions_.end()) return;
  Session& s = it->second;
  if (!pump_in(client_fd, s.up)) {
    // The agent hung up (or was reset): the session dies with it.
    teardown(client_fd);
    return;
  }
  if (s.upstream_fd >= 0 && !flush(s.upstream_fd, s.up, &stats_.bytes_up)) {
    lose_upstream(s);
    arm_redial(s);
  }
  if ((mask & net::kEvWrite) != 0 &&
      !flush(client_fd, s.down, &stats_.bytes_down)) {
    teardown(client_fd);
    return;
  }
  update_interest(s);
}

void SimProxy::on_upstream_ready(int client_fd, std::uint32_t /*mask*/) {
  const auto it = sessions_.find(client_fd);
  if (it == sessions_.end()) return;
  Session& s = it->second;
  if (s.upstream_fd < 0) return;  // stale event from a replaced leg
  const bool upstream_alive = pump_in(s.upstream_fd, s.down);
  if (!flush(client_fd, s.down, &stats_.bytes_down)) {
    teardown(client_fd);
    return;
  }
  if (!upstream_alive) {
    lose_upstream(s);
    arm_redial(s);
  } else if (!flush(s.upstream_fd, s.up, &stats_.bytes_up)) {
    lose_upstream(s);
    arm_redial(s);
  }
  update_interest(s);
}

}  // namespace ft::sim
