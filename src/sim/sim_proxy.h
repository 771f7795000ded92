// SimProxy: a VIP-style L4 forwarder for the simulated control plane.
//
// Production deployments put the allocator behind a virtual IP: agents
// dial the VIP, a proxy (or the load-balancer dataplane) forwards to
// whichever allocator instance is live, and an allocator restart is
// *invisible* at the agent's socket -- the client leg stays up while
// the proxy re-dials the new instance. That topology is exactly where
// stale-rate bugs hide: the agent never sees a disconnect, its lease
// keeps getting renewed by the new instance's heartbeats, and nothing
// forces it to drop rates computed by the old instance. The epoch
// stamp (core/messages.h) exists to close that hole; SimProxy exists
// to *reach* it deterministically in virtual time.
//
// Forwarding is frame-aligned in both directions: the proxy cuts
// complete length-prefixed frames (net/frame.h) out of each leg and
// forwards whole frames only. That makes an upstream swap parser-safe:
//   - client->upstream: a partial frame's remainder will still arrive
//     (the client leg survived), so parse residue is kept; complete
//     frames not yet written to the dead upstream are preserved and
//     sent to its replacement. Frames already written but lost in
//     flight are gone -- recovering those is the agents' job (epoch-
//     triggered flowlet replay), not the proxy's.
//   - upstream->client: a partial frame's remainder will *never*
//     arrive (that upstream is dead), so the residue is discarded --
//     and counted, never silently (bytes_discarded_resync).
// A direction that turns out not to be length-prefixed falls back to
// verbatim forwarding (raw mode), as SimTransport's drop sieve does
// (both cut frames with net::frame_size). Bytes a session still holds
// when it ends are counted too (bytes_discarded_on_close). Faults are
// not the proxy's job: they live in the transport underneath.
//
// Single-threaded, event-driven on the Transport's IoLoop; with
// SimTransport underneath every action is a deterministic virtual-time
// event, so chaos schedules involving VIP warm restarts replay
// bit-identically from a seed.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string_view>
#include <vector>

#include "net/transport.h"

namespace ft::obs {
class Counter;
}  // namespace ft::obs

namespace ft::sim {

struct SimProxyStats {
  std::uint64_t clients_accepted = 0;
  std::uint64_t clients_closed = 0;
  std::uint64_t upstream_dials = 0;    // successful connects, incl. first
  std::uint64_t upstream_redials = 0;  // of those, replacements after a loss
  std::uint64_t upstream_losses = 0;   // EOF/reset/refused on a live leg
  std::int64_t bytes_up = 0;           // client -> upstream, forwarded
  std::int64_t bytes_down = 0;         // upstream -> client, forwarded
  // The proxy's two drop paths: partial-frame residue discarded when
  // swapping a dead upstream, and whatever a session still buffers in
  // either direction when it is torn down.
  std::int64_t bytes_discarded_resync = 0;
  std::int64_t bytes_discarded_on_close = 0;
};

class SimProxy {
 public:
  struct Config {
    int listen_port = 0;     // 0 = ephemeral; see port()
    int upstream_port = 0;   // where the allocator (re)binds
    std::int64_t redial_delay_us = 1000;  // backoff between upstream dials
  };

  SimProxy(net::Transport& tr, const Config& cfg);
  ~SimProxy();
  SimProxy(const SimProxy&) = delete;
  SimProxy& operator=(const SimProxy&) = delete;

  // The VIP: what agents should dial.
  [[nodiscard]] int port() const { return port_; }
  [[nodiscard]] const SimProxyStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t num_sessions() const { return sessions_.size(); }
  // Sessions currently holding a live upstream leg (the rest are
  // mid-redial). The leak oracle counts transport slots against this.
  [[nodiscard]] std::size_t num_upstreams() const {
    return upstream_owner_.size();
  }

  // Mirrors the proxy's drop paths into named counters
  // ("<prefix>.bytes_discarded_resync", "<prefix>.bytes_discarded_on_close").
  void bind_metrics(obs::MetricsRegistry& reg, std::string_view prefix);

 private:
  // One direction of a session: frame cutter + ready-to-write queue.
  struct Pipe {
    std::vector<std::uint8_t> parse;  // incomplete-frame accumulation
    std::vector<std::uint8_t> ready;  // whole frames awaiting write
    std::size_t ready_off = 0;        // written prefix of `ready`
    bool raw = false;                 // unframeable: forward verbatim
  };

  struct Session {
    int client_fd = -1;
    int upstream_fd = -1;  // -1 while the upstream is being re-dialed
    Pipe up;               // client -> upstream
    Pipe down;             // upstream -> client
    net::IoLoop::TimerId redial_timer = 0;  // 0 = none armed
    bool had_upstream = false;  // a dial ever succeeded (redial counting)
  };

  void on_listener_ready(std::uint32_t mask);
  void on_client_ready(int client_fd, std::uint32_t mask);
  void on_upstream_ready(int client_fd, std::uint32_t mask);

  // Reads everything available from `fd` into `p`, cutting frames.
  // Returns false when the source is dead (EOF or reset).
  bool pump_in(int fd, Pipe& p);
  // Writes p.ready toward `fd`, adding what shipped to *forwarded;
  // returns false when the sink is dead.
  bool flush(int fd, Pipe& p, std::int64_t* forwarded);
  void update_interest(Session& s);

  void dial_upstream(Session& s);
  void arm_redial(Session& s);
  void lose_upstream(Session& s);
  void teardown(int client_fd);

  net::Transport& tr_;
  Config cfg_;
  std::unique_ptr<net::IoLoop> loop_;
  int listen_fd_ = -1;
  int port_ = 0;
  // Ordered for deterministic teardown.
  std::map<int, Session> sessions_;       // by client_fd
  std::map<int, int> upstream_owner_;     // upstream_fd -> client_fd
  SimProxyStats stats_;
  obs::Counter* resync_counter_ = nullptr;
  obs::Counter* close_counter_ = nullptr;
};

}  // namespace ft::sim
