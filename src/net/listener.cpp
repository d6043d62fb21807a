#include "net/listener.hpp"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <climits>
#include <cmath>

#include "net/socket.hpp"

namespace mfd::net {

namespace {

using Clock = std::chrono::steady_clock;

/// Remaining poll timeout in ms, clamped into [0, INT_MAX]; -1 = forever.
int remaining_timeout_ms(bool forever, Clock::time_point deadline) {
  if (forever) return -1;
  const double remaining_ms =
      std::chrono::duration<double, std::milli>(deadline - Clock::now())
          .count();
  if (remaining_ms <= 0.0) return 0;
  if (remaining_ms >= static_cast<double>(INT_MAX)) return INT_MAX;
  return static_cast<int>(remaining_ms) + 1;
}

}  // namespace

std::unique_ptr<Listener> Listener::bind(const std::string& host, int port,
                                         std::string* error) {
  const int listen_fd = tcp_listen(host, port, /*backlog=*/64, error);
  if (listen_fd < 0) return nullptr;
  int wake[2] = {-1, -1};
  if (::pipe2(wake, O_CLOEXEC) != 0) {
    if (error != nullptr) *error = std::string("pipe2: ") + strerror(errno);
    ::close(listen_fd);
    return nullptr;
  }
  std::unique_ptr<Listener> listener(new Listener());
  listener->listen_fd_ = listen_fd;
  listener->wake_read_fd_ = wake[0];
  listener->wake_write_fd_ = wake[1];
  listener->port_ = bound_port(listen_fd);
  listener->host_ = host;
  return listener;
}

Listener::~Listener() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_read_fd_ >= 0) ::close(wake_read_fd_);
  if (wake_write_fd_ >= 0) ::close(wake_write_fd_);
}

Listener::AcceptStatus Listener::accept(double timeout_s, int* fd,
                                        std::string* error) {
  const bool forever = timeout_s < 0.0;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(
                             forever ? 0.0 : timeout_s));
  for (;;) {
    struct pollfd fds[2] = {};
    fds[0].fd = listen_fd_;
    fds[0].events = POLLIN;
    fds[1].fd = wake_read_fd_;
    fds[1].events = POLLIN;
    const int ready =
        ::poll(fds, 2, remaining_timeout_ms(forever, deadline));
    if (ready < 0) {
      if (errno == EINTR) continue;  // recompute the remaining timeout
      if (error != nullptr) *error = std::string("poll: ") + strerror(errno);
      return AcceptStatus::kError;
    }
    if ((fds[1].revents & POLLIN) != 0) return AcceptStatus::kInterrupted;
    if (ready == 0) return AcceptStatus::kTimeout;
    if ((fds[0].revents & POLLIN) != 0) {
      int accepted;
      do {
        accepted = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
      } while (accepted < 0 && errno == EINTR);
      if (accepted < 0) {
        // A peer that reset before accept is not an error. Fd pressure
        // (EMFILE, ENFILE) is reported, so a caller's loop can close fds
        // instead of spinning here.
        if (errno == ECONNABORTED || errno == EAGAIN || errno == EWOULDBLOCK) {
          continue;
        }
        if (error != nullptr) {
          *error = std::string("accept: ") + strerror(errno);
        }
        return AcceptStatus::kError;
      }
      *fd = accepted;
      return AcceptStatus::kAccepted;
    }
  }
}

void Listener::interrupt() {
  const char byte = 'x';
  ssize_t n;
  do {
    n = ::write(wake_write_fd_, &byte, 1);
  } while (n < 0 && errno == EINTR);
}

}  // namespace mfd::net
