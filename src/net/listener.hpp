// Interruptible TCP accept loop for the job daemon.
//
// Listener wraps one listening socket plus a self-pipe so a long-lived
// accept loop can be woken from another thread: accept(timeout) polls both
// fds, retries EINTR with the remaining timeout recomputed, and returns
// kInterrupted the moment interrupt() is called — the daemon's stop() path
// never has to wait out a poll timeout or race a close(). Binding to port
// 0 picks a kernel-assigned ephemeral port; port() reports the real one so
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

  /// The listening socket, for a loop that polls it among its own fds and
  /// then calls accept(0.0).
  [[nodiscard]] int fd() const { return listen_fd_; }

  enum class AcceptStatus {
    kAccepted,     ///< *fd holds the connection (O_CLOEXEC).
    kTimeout,      ///< No connection within timeout_s.
    kInterrupted,  ///< interrupt() was called; the loop should exit.
    kError,        ///< accept failed; *error filled.
  };

  /// Waits up to timeout_s (< 0 = forever) for one connection. EINTR is
  /// retried with the remaining time; interrupt() wins over everything.
  AcceptStatus accept(double timeout_s, int* fd, std::string* error);

  /// Wakes every blocked and future accept() with kInterrupted. Safe from
  /// any thread, idempotent.
  void interrupt();

 private:
  Listener() = default;

  int listen_fd_ = -1;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;
  int port_ = 0;
  std::string host_;
};

}  // namespace mfd::net
