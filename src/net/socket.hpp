// Low-level TCP plumbing for the networked job service.
//
// Everything here is a thin, error-string-returning wrapper over the BSD
// socket calls the daemon and its peers need: bind-and-listen (with
// ephemeral-port support so tests never race over a fixed port), a
// one-shot connect, and a reconnect-with-backoff client loop for peers
// that may start before the daemon does. All calls retry EINTR; none
// raise SIGPIPE (writes go through net::FramedConnection, which uses
// MSG_NOSIGNAL on sockets).
//
// Addresses are "host:port" strings; parse_host_port() also accepts a bare
// ":port"/"port" (host defaults to 127.0.0.1 — the daemon binds loopback
// unless told otherwise).
#pragma once

#include <string>

namespace mfd::net {

/// A parsed "host:port" endpoint.
struct Endpoint {
  std::string host = "127.0.0.1";
  int port = 0;
};

/// Parses "host:port", ":port" or "port" (host defaults to loopback).
/// Returns false (and fills *error) for a malformed or out-of-range spec.
[[nodiscard]] bool parse_host_port(const std::string& spec, Endpoint* endpoint,
                                   std::string* error);

/// Binds and listens on host:port (port 0 = kernel-assigned ephemeral
/// port). Returns the listening fd (O_CLOEXEC, SO_REUSEADDR) or -1 with
/// *error filled.
[[nodiscard]] int tcp_listen(const std::string& host, int port, int backlog,
                             std::string* error);

/// The port a listening fd is actually bound to (resolves port 0).
[[nodiscard]] int bound_port(int listen_fd);

/// One connection attempt to host:port. Returns the connected fd
/// (O_CLOEXEC) or -1 with *error filled.
[[nodiscard]] int tcp_connect(const std::string& host, int port,
                              std::string* error);

/// Reconnect-with-backoff client: up to `attempts` tcp_connect() tries,
/// sleeping base_s * 2^k (capped at max_s) between consecutive failures —
/// so a worker or client that races a still-starting daemon settles in
/// instead of dying. Returns the connected fd or -1 with the last error.
[[nodiscard]] int tcp_connect_backoff(const std::string& host, int port,
                                      int attempts, double base_s,
                                      double max_s, std::string* error);

}  // namespace mfd::net
