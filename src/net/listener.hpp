// Non-blocking TCP listening socket for the job daemon.
//
// The daemon's I/O thread polls fd() among its own fds and calls accept()
// once poll() reports POLLIN; accept() never blocks, so a connection that
// went away in between costs nothing. Stopping the daemon wakes that thread
// through its own eventfd, not through the listener. Binding to port 0
// picks a kernel-assigned ephemeral port; port() reports the real one so
// tests and tools can advertise it.
#pragma once

#include <memory>
#include <string>

namespace mfd::net {

class Listener {
 public:
  /// Binds and listens; nullptr with *error filled on failure.
  static std::unique_ptr<Listener> bind(const std::string& host, int port,
                                        std::string* error);

  ~Listener();

  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// The actual bound port (resolves port 0 to the assigned one).
  [[nodiscard]] int port() const { return port_; }
  [[nodiscard]] const std::string& host() const { return host_; }

  /// The listening socket (O_NONBLOCK), for a loop that polls it among its
  /// own fds and then calls accept().
  [[nodiscard]] int fd() const { return listen_fd_; }

  enum class AcceptStatus {
    kAccepted,     ///< *fd holds the connection (O_CLOEXEC, blocking).
    kNonePending,  ///< No connection is waiting; poll fd() again.
    kError,        ///< accept failed; *error filled.
  };

  /// Accepts one pending connection without blocking. Fd exhaustion
  /// (EMFILE, ENFILE) is an error, so a caller's loop can close fds instead
  /// of spinning on POLLIN.
  AcceptStatus accept(int* fd, std::string* error);

 private:
  Listener() = default;

  int listen_fd_ = -1;
  int port_ = 0;
  std::string host_;
};

}  // namespace mfd::net
