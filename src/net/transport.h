// The transport/clock seam: everything the control plane needs from the
// OS, as an interface implemented twice.
//
//   * OsTransport (net/transport.cc) is the production path: handles are
//     real fds, connect/accept/read/write/close are the exact syscall
//     sequences the pre-seam code inlined (blocking loopback dials made
//     nonblocking on adoption, accept4 + O_NONBLOCK, send with
//     MSG_NOSIGNAL), and make_loop() returns an EpollLoop -- byte-for-
//     byte the old behavior.
//   * sim::SimTransport (sim/sim_transport.h) backs the same interface
//     with in-memory duplex pipes scheduled on a sim::EventQueue:
//     handles are table ids, delivery happens at virtual
//     now + latency + tx_time(bytes, bandwidth), and clock() reads
//     virtual time -- so the *real* AllocatorService and EndpointAgent
//     run unmodified under the discrete-event simulator.
//
// IoLoop is the readiness/timer half of the seam: EpollLoop's exact
// public surface as an abstract interface, so the service's shard loops
// and timers work against either backend. Event masks use epoll's
// numeric values (verified by static_asserts in transport.cc), which
// keeps the OS path a pass-through: existing EPOLLIN/EPOLLOUT call
// sites and the kEv* names below are interchangeable.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "common/time.h"

namespace ft::obs {
class MetricsRegistry;
}  // namespace ft::obs

namespace ft::net {

// Readiness masks, numerically equal to EPOLLIN/EPOLLOUT/EPOLLERR/
// EPOLLHUP so OS-path code can keep using either spelling.
inline constexpr std::uint32_t kEvRead = 0x001;
inline constexpr std::uint32_t kEvWrite = 0x004;
inline constexpr std::uint32_t kEvErr = 0x008;
inline constexpr std::uint32_t kEvHup = 0x010;

// Abstract readiness + timer loop (EpollLoop's public API). All
// callbacks run on the thread driving run()/run_once(); stop() is the
// only entry point a concrete implementation must make thread-safe
// (and the sim backend, being single-threaded by construction, need
// not).
class IoLoop {
 public:
  using FdCallback = std::function<void(std::uint32_t events)>;
  using TimerCallback = std::function<void()>;
  using TimerId = std::uint64_t;

  virtual ~IoLoop() = default;

  // Registers `fd` (an OS fd or a sim transport handle) for `events`.
  // The callback receives the ready event mask. The loop does not own
  // the handle.
  virtual void add_fd(int fd, std::uint32_t events, FdCallback cb) = 0;
  virtual void mod_fd(int fd, std::uint32_t events) = 0;
  virtual void del_fd(int fd) = 0;
  [[nodiscard]] virtual bool watching(int fd) const = 0;

  // One-shot timer firing `delay_us` from now (<=0 fires on the next
  // dispatch). Periodic timers re-arm at fixed period from the previous
  // deadline. Both may be cancelled; ids are never reused.
  virtual TimerId add_timer(std::int64_t delay_us, TimerCallback cb) = 0;
  virtual TimerId add_periodic(std::int64_t period_us,
                               TimerCallback cb) = 0;
  virtual void cancel_timer(TimerId id) = 0;

  // Waits for readiness or the next timer deadline (capped by
  // `max_wait_us`, -1 = no cap), dispatches fd events then due timers.
  // Returns the number of callbacks dispatched. (The sim loop never
  // waits: it advances virtual time to the next due event instead.)
  virtual int run_once(std::int64_t max_wait_us) = 0;
  // run_once(0) -- a virtual function cannot carry the historical
  // default argument through every override cleanly, so spell it out.
  int run_once() { return run_once(0); }

  virtual void run() = 0;
  virtual void stop() = 0;

  virtual void bind_metrics(obs::MetricsRegistry& reg,
                            std::string_view prefix) = 0;
};

// Byte-stream transport: connection setup, stream I/O and handle
// teardown. Handles are plain ints -- fds on the OS path, table ids in
// the sim -- so Connection structs and fd-keyed maps work unchanged.
// Stream calls follow nonblocking-socket semantics exactly: read/write
// return bytes moved, 0 from read means EOF, -1 sets errno (EAGAIN when
// the operation would block), so the existing drain/flush loops run
// against either backend.
class Transport {
 public:
  virtual ~Transport() = default;

  // The clock this transport's timestamps and deadlines live on (the
  // system clock for OS sockets, virtual time for the sim).
  [[nodiscard]] virtual Clock& clock() = 0;

  // Blocking-style dials (loopback semantics: immediate success or
  // failure); the returned handle is nonblocking. -1 on failure.
  virtual int connect_tcp(const std::string& host, int port) = 0;
  virtual int connect_unix(const std::string& path) = 0;

  // Listeners come back nonblocking; port 0 = assigned (written to
  // *bound_port when non-null). -1 aborts service setup (FT_CHECKed by
  // callers).
  virtual int listen_tcp(int port, bool listen_any, int* bound_port) = 0;
  virtual int listen_unix(const std::string& path) = 0;
  // Accepts one pending connection as a nonblocking handle; -1 with
  // errno EAGAIN when the backlog is empty (EMFILE etc. pass through).
  virtual int accept(int listen_handle) = 0;

  [[nodiscard]] virtual std::int64_t read(int handle, void* buf,
                                          std::size_t len) = 0;
  [[nodiscard]] virtual std::int64_t write(int handle, const void* buf,
                                           std::size_t len) = 0;
  virtual void close(int handle) = 0;

  // Socket options; no-ops off the OS path.
  virtual void set_nodelay(int handle) = 0;
  virtual void set_sndbuf(int handle, int bytes) = 0;
  // Removes a unix listener's path binding (::unlink on the OS).
  virtual void unlink_path(const std::string& path) = 0;

  // A fresh loop for I/O shards (EpollLoop on the OS, a SimLoop sharing
  // the transport's event queue in the sim).
  [[nodiscard]] virtual std::unique_ptr<IoLoop> make_loop() = 0;
  // Whether shard threads may drive this transport concurrently. The
  // sim is single-threaded by construction (determinism): a service on
  // it runs every shard loop on the thread stepping the event queue.
  [[nodiscard]] virtual bool supports_threads() const = 0;
};

// The process-wide OS transport (what every component defaults to when
// no explicit transport is configured).
[[nodiscard]] Transport& os_transport();

}  // namespace ft::net
