#include "net/listener.hpp"

#include <errno.h>
#include <fcntl.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include "net/socket.hpp"

namespace mfd::net {

std::unique_ptr<Listener> Listener::bind(const std::string& host, int port,
                                         std::string* error) {
  const int listen_fd = tcp_listen(host, port, /*backlog=*/64, error);
  if (listen_fd < 0) return nullptr;
  const int flags = ::fcntl(listen_fd, F_GETFL);
  if (flags < 0 || ::fcntl(listen_fd, F_SETFL, flags | O_NONBLOCK) != 0) {
    if (error != nullptr) *error = std::string("fcntl: ") + strerror(errno);
    ::close(listen_fd);
    return nullptr;
  }
  std::unique_ptr<Listener> listener(new Listener());
  listener->listen_fd_ = listen_fd;
  listener->port_ = bound_port(listen_fd);
  listener->host_ = host;
  return listener;
}

Listener::~Listener() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

Listener::AcceptStatus Listener::accept(int* fd, std::string* error) {
  const int accepted = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
  if (accepted >= 0) {
    *fd = accepted;
    return AcceptStatus::kAccepted;
  }
  // Nothing waiting, a peer that reset before accept, or a signal: whatever
  // is still in the backlog makes the next poll() report POLLIN again.
  if (errno == EAGAIN || errno == EWOULDBLOCK || errno == ECONNABORTED ||
      errno == EINTR) {
    return AcceptStatus::kNonePending;
  }
  if (error != nullptr) *error = std::string("accept: ") + strerror(errno);
  return AcceptStatus::kError;
}

}  // namespace mfd::net
