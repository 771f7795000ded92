// Shared socket plumbing for the OS transport path.
//
// The nonblocking / SO_REUSEADDR / TCP_NODELAY / close-on-failure
// boilerplate behind net::OsTransport (net/transport.cc), which every
// real socket in the control plane goes through. Every function either
// returns a ready fd (listeners and accepted sockets come back
// nonblocking) or -1 with the failing call's errno preserved and no fd
// leaked.
#pragma once

#include <string>

namespace ft::net {

// fcntl O_NONBLOCK; aborts on failure (callers only pass healthy fds).
void set_nonblocking(int fd);
// Best-effort TCP_NODELAY (control messages are tiny; Nagle would batch
// them behind the ACK clock).
void set_tcp_nodelay(int fd);

// Loopback/any TCP listener with SO_REUSEADDR, bound, listening and
// nonblocking. port 0 = kernel-assigned; the bound port is written to
// *bound_port when non-null. Returns the fd or -1.
int tcp_listen(int port, bool listen_any, int* bound_port);
// Unix-domain listener at `path` (unlinked first), nonblocking.
int unix_listen(const std::string& path);

// Blocking connect to host:port with TCP_NODELAY, or to a unix path.
// The caller sets nonblocking afterwards if it wants to (the blocking
// dial keeps loopback connect semantics: immediate success or failure).
int tcp_dial(const std::string& host, int port);
int unix_dial(const std::string& path);

// accept4(SOCK_CLOEXEC) + set_nonblocking on success. Returns the fd or
// -1 with accept's errno (EAGAIN/EMFILE/... for the caller to sort out).
int accept_nonblocking(int listen_fd);

}  // namespace ft::net
