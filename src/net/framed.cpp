#include "net/framed.hpp"

#include <errno.h>
#include <fcntl.h>
#include <signal.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <utility>

namespace mfd::net {

namespace {

bool fd_is_socket(int fd) {
  struct stat info = {};
  return ::fstat(fd, &info) == 0 && S_ISSOCK(info.st_mode);
}

std::string errno_text() { return strerror(errno); }

}  // namespace

FramedConnection::FramedConnection(int fd)
    : fd_(fd), is_socket_(fd >= 0 && fd_is_socket(fd)) {}

FramedConnection::~FramedConnection() { close(); }

FramedConnection::FramedConnection(FramedConnection&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      is_socket_(other.is_socket_),
      buffer_(std::move(other.buffer_)),
      scanned_(other.scanned_),
      last_error_(std::move(other.last_error_)) {}

FramedConnection& FramedConnection::operator=(
    FramedConnection&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    is_socket_ = other.is_socket_;
    buffer_ = std::move(other.buffer_);
    scanned_ = other.scanned_;
    last_error_ = std::move(other.last_error_);
  }
  return *this;
}

bool FramedConnection::set_nonblocking(bool on) {
  if (fd_ < 0) return false;
  const int flags = ::fcntl(fd_, F_GETFL);
  if (flags < 0) return false;
  const int wanted = on ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  return ::fcntl(fd_, F_SETFL, wanted) == 0;
}

FramedConnection::ReadStatus FramedConnection::read_line(std::string* line) {
  for (;;) {
    const std::size_t newline = buffer_.find('\n', scanned_);
    if (newline != std::string::npos) {
      *line = buffer_.substr(0, newline);
      buffer_.erase(0, newline + 1);
      scanned_ = 0;
      return ReadStatus::kLine;
    }
    scanned_ = buffer_.size();
    if (buffer_.size() > kMaxLineBytes) {
      last_error_ = "line too long: over " + std::to_string(kMaxLineBytes) +
                    " bytes without a newline";
      return ReadStatus::kError;
    }
    if (fd_ < 0) return ReadStatus::kEof;
    char chunk[4096];
    const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n > 0) {
      buffer_.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) return ReadStatus::kEof;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return ReadStatus::kAgain;
    last_error_ = "read: " + errno_text();
    return ReadStatus::kError;
  }
}

bool FramedConnection::write_line(const std::string& line) {
  if (fd_ < 0) {
    last_error_ = "write: connection closed";
    return false;
  }
  std::string framed = line;
  framed += '\n';

  // Pipes have no MSG_NOSIGNAL: block SIGPIPE around the write (and swallow
  // one if the write raised it), so a dead peer surfaces as EPIPE instead
  // of killing the caller.
  sigset_t pipe_set;
  sigset_t old_set;
  if (!is_socket_) {
    sigemptyset(&pipe_set);
    sigaddset(&pipe_set, SIGPIPE);
    pthread_sigmask(SIG_BLOCK, &pipe_set, &old_set);
  }

  bool ok = true;
  std::size_t written = 0;
  while (written < framed.size()) {
    const ssize_t n =
        is_socket_
            ? ::send(fd_, framed.data() + written, framed.size() - written,
                     MSG_NOSIGNAL)
            : ::write(fd_, framed.data() + written, framed.size() - written);
    if (n > 0) {
      written += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    last_error_ = "write: " + errno_text();
    ok = false;
    break;
  }

  if (!is_socket_) {
    if (!ok) {
      const struct timespec zero = {0, 0};
      while (sigtimedwait(&pipe_set, nullptr, &zero) == SIGPIPE) {
      }
    }
    pthread_sigmask(SIG_SETMASK, &old_set, nullptr);
  }
  return ok;
}

void FramedConnection::shutdown_write() {
  if (fd_ < 0) return;
  if (is_socket_) {
    ::shutdown(fd_, SHUT_WR);
  } else {
    close();
  }
}

void FramedConnection::close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

std::string FramedConnection::loss_detail() const {
  std::string detail = last_error_;
  if (!buffer_.empty()) {
    if (!detail.empty()) detail += "; ";
    detail += "torn line: " + std::to_string(buffer_.size()) +
              " buffered bytes of partial output discarded";
  }
  return detail;
}

}  // namespace mfd::net
