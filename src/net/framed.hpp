// Line-framed connection over any byte-stream fd (socket or pipe).
//
// The whole job service speaks newline-delimited JSON, so "framing" is one
// buffered line assembler shared by every transport: the pipes to worker
// processes, the daemon's client/worker sockets, and the remote-worker
// client. FramedConnection owns the fd and provides:
//
//   * read_line(): buffered line reads, blocking or nonblocking (kAgain),
//     with EINTR always retried. A failed read is reported as kError —
//     distinct from a clean kEof — and the errno text plus the size of any
//     buffered partial line are recorded, so callers can report *why* a
//     peer was lost instead of collapsing every failure into "EOF"
//     (loss_detail()). A line longer than kMaxLineBytes is an error too, so
//     a peer that never sends '\n' cannot grow the buffer without bound.
//   * write_line(): appends '\n' and writes the frame whole, retrying
//     EINTR and short writes. Sockets write with MSG_NOSIGNAL; pipe writes
//     mask SIGPIPE around the call — either way a dead peer surfaces as a
//     clean false, never a process-killing signal.
//
// Instances are move-only and close their fd on destruction.
#pragma once

#include <cstddef>
#include <string>

namespace mfd::net {

class FramedConnection {
 public:
  enum class ReadStatus {
    kLine,   ///< *line holds one complete line (newline stripped).
    kAgain,  ///< Nonblocking fd: no complete line buffered yet.
    kEof,    ///< Clean end of stream (peer closed after a full line).
    kError,  ///< Read failed; see last_error() / loss_detail().
  };

  /// Longest line read_line() accepts: far above the largest spec line
  /// (about 165 KB for a 64x64 FPVA), far below what exhausts memory.
  static constexpr std::size_t kMaxLineBytes = std::size_t{16} << 20;

  FramedConnection() = default;
  /// Takes ownership of `fd` (closed on destruction); fd < 0 = invalid.
  explicit FramedConnection(int fd);
  ~FramedConnection();

  FramedConnection(FramedConnection&& other) noexcept;
  FramedConnection& operator=(FramedConnection&& other) noexcept;
  FramedConnection(const FramedConnection&) = delete;
  FramedConnection& operator=(const FramedConnection&) = delete;

  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  [[nodiscard]] int fd() const { return fd_; }

  /// O_NONBLOCK on or off; returns false when fcntl failed.
  bool set_nonblocking(bool on);

  /// Next complete line from the stream. kEof with buffered bytes left
  /// (a peer that died mid-line) keeps those bytes observable through
  /// partial_bytes() — a torn line is never returned as a complete one.
  /// More than kMaxLineBytes without a newline is kError ("line too long").
  ReadStatus read_line(std::string* line);

  /// Writes line + '\n' whole. False when the peer is gone (EPIPE,
  /// ECONNRESET, ...); the errno text lands in last_error().
  bool write_line(const std::string& line);

  /// Half-close: no more writes, the peer sees EOF, reads still drain.
  /// Sockets use shutdown(SHUT_WR); for pipes this closes the fd.
  void shutdown_write();

  void close();

  /// Bytes of an incomplete trailing line still buffered (torn-line
  /// detection after kEof/kError).
  [[nodiscard]] std::size_t partial_bytes() const { return buffer_.size(); }

  /// errno text of the last failed read or write ("" when none failed).
  [[nodiscard]] const std::string& last_error() const { return last_error_; }

  /// Human-readable reason the peer was lost, composed from the last error
  /// and any discarded partial line; "" for a clean EOF with no residue.
  [[nodiscard]] std::string loss_detail() const;

 private:
  int fd_ = -1;
  bool is_socket_ = false;
  std::string buffer_;
  /// Prefix of buffer_ already searched for '\n'.
  std::size_t scanned_ = 0;
  std::string last_error_;
};

}  // namespace mfd::net
