// net/ transport primitives: line framing over pipes and sockets (torn
// lines, clean EOF, dead peers), the non-blocking Listener, host:port
// parsing, and connect-with-backoff — the substrate under the networked
// job daemon.
#include "net/framed.hpp"

#include <gtest/gtest.h>

#include <string>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "net/listener.hpp"
#include "net/socket.hpp"

namespace mfd::net {
namespace {

using ReadStatus = FramedConnection::ReadStatus;

/// A connected local socket pair wrapped in FramedConnections.
struct FramedPair {
  FramedConnection a;
  FramedConnection b;

  FramedPair() {
    int fds[2] = {-1, -1};
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a = FramedConnection(fds[0]);
    b = FramedConnection(fds[1]);
  }
};

TEST(FramedConnection, RoundTripsLinesInOrder) {
  FramedPair pair;
  ASSERT_TRUE(pair.a.write_line("first"));
  ASSERT_TRUE(pair.a.write_line("second {\"json\": true}"));
  ASSERT_TRUE(pair.a.write_line(""));  // empty lines are legal frames
  std::string line;
  ASSERT_EQ(pair.b.read_line(&line), ReadStatus::kLine);
  EXPECT_EQ(line, "first");
  ASSERT_EQ(pair.b.read_line(&line), ReadStatus::kLine);
  EXPECT_EQ(line, "second {\"json\": true}");
  ASSERT_EQ(pair.b.read_line(&line), ReadStatus::kLine);
  EXPECT_EQ(line, "");
}

TEST(FramedConnection, ShutdownWriteReadsAsCleanEof) {
  FramedPair pair;
  ASSERT_TRUE(pair.a.write_line("last words"));
  pair.a.shutdown_write();
  std::string line;
  ASSERT_EQ(pair.b.read_line(&line), ReadStatus::kLine);
  EXPECT_EQ(line, "last words");
  EXPECT_EQ(pair.b.read_line(&line), ReadStatus::kEof);
  EXPECT_EQ(pair.b.partial_bytes(), 0u);
}

TEST(FramedConnection, PeerDeadMidLineLeavesPartialBytesObservable) {
  FramedPair pair;
  // Half a line, no newline, then the peer vanishes.
  const std::string torn = "{\"id\": \"torn";
  ASSERT_EQ(::write(pair.a.fd(), torn.data(), torn.size()),
            static_cast<ssize_t>(torn.size()));
  pair.a.close();
  std::string line;
  // The torn fragment is never surfaced as a complete line...
  EXPECT_EQ(pair.b.read_line(&line), ReadStatus::kEof);
  // ...but its size is, so the loss report can say "N bytes of a torn
  // line" instead of pretending the stream ended cleanly.
  EXPECT_EQ(pair.b.partial_bytes(), torn.size());
  EXPECT_NE(pair.b.loss_detail().find(std::to_string(torn.size())),
            std::string::npos);
}

TEST(FramedConnection, WriteToDeadPeerFailsWithoutKillingTheProcess) {
  FramedPair pair;
  pair.b.close();
  // The first write may land in the socket buffer; the dead peer must
  // surface as `false` within a couple of frames — as an error return,
  // never as SIGPIPE.
  bool alive = true;
  for (int i = 0; i < 4 && alive; ++i) alive = pair.a.write_line("hello?");
  EXPECT_FALSE(alive);
  EXPECT_FALSE(pair.a.last_error().empty());
}

TEST(FramedConnection, WorksOverPipesToo) {
  int fds[2] = {-1, -1};
  ASSERT_EQ(::pipe(fds), 0);
  FramedConnection reader(fds[0]);
  FramedConnection writer(fds[1]);
  ASSERT_TRUE(writer.write_line("through a pipe"));
  std::string line;
  ASSERT_EQ(reader.read_line(&line), ReadStatus::kLine);
  EXPECT_EQ(line, "through a pipe");
  writer.shutdown_write();  // pipes have no SHUT_WR; this closes the fd
  EXPECT_EQ(reader.read_line(&line), ReadStatus::kEof);
}

TEST(FramedConnection, NonblockingReadReportsAgainNotEof) {
  FramedPair pair;
  ASSERT_TRUE(pair.b.set_nonblocking(true));
  std::string line;
  EXPECT_EQ(pair.b.read_line(&line), ReadStatus::kAgain);
  ASSERT_TRUE(pair.a.write_line("now"));
  EXPECT_EQ(pair.b.read_line(&line), ReadStatus::kLine);
  EXPECT_EQ(line, "now");
}

TEST(FramedConnection, OverlongLineIsAnErrorNotUnboundedGrowth) {
  int fds[2] = {-1, -1};
  ASSERT_EQ(::pipe(fds), 0);
  FramedConnection reader(fds[0]);
  // A peer that never sends '\n': past the cap, read_line gives up.
  std::thread writer([fd = fds[1]] {
    const std::string chunk(1 << 16, 'x');
    std::size_t sent = 0;
    while (sent <= FramedConnection::kMaxLineBytes) {
      const ssize_t n = ::write(fd, chunk.data(), chunk.size());
      if (n <= 0) break;
      sent += static_cast<std::size_t>(n);
    }
    ::close(fd);
  });
  std::string line;
  EXPECT_EQ(reader.read_line(&line), ReadStatus::kError);
  EXPECT_NE(reader.loss_detail().find("line too long"), std::string::npos)
      << reader.loss_detail();
  EXPECT_LE(reader.partial_bytes(), FramedConnection::kMaxLineBytes + 4096);
  reader.close();  // the writer's next write fails instead of blocking
  writer.join();
}

/// Waits up to 5 s for `listener` to report a pending connection, as the
/// daemon's poll() loop does, then accepts it.
Listener::AcceptStatus poll_and_accept(Listener& listener, int* fd,
                                       std::string* error) {
  struct pollfd ready = {listener.fd(), POLLIN, 0};
  if (::poll(&ready, 1, 5000) != 1) return Listener::AcceptStatus::kNonePending;
  return listener.accept(fd, error);
}

TEST(Listener, AcceptsLoopbackConnectionsOnEphemeralPort) {
  std::string error;
  auto listener = Listener::bind("127.0.0.1", 0, &error);
  ASSERT_NE(listener, nullptr) << error;
  EXPECT_GT(listener->port(), 0);
  // accept() never blocks: with nobody connecting it reports so at once.
  ASSERT_NE(::fcntl(listener->fd(), F_GETFL) & O_NONBLOCK, 0);
  int accepted = -1;
  EXPECT_EQ(listener->accept(&accepted, &error),
            Listener::AcceptStatus::kNonePending);

  const int client = tcp_connect("127.0.0.1", listener->port(), &error);
  ASSERT_GE(client, 0) << error;
  ASSERT_EQ(poll_and_accept(*listener, &accepted, &error),
            Listener::AcceptStatus::kAccepted);

  FramedConnection server_side(accepted);
  FramedConnection client_side(client);
  ASSERT_TRUE(client_side.write_line("ping"));
  std::string line;
  ASSERT_EQ(server_side.read_line(&line), ReadStatus::kLine);
  EXPECT_EQ(line, "ping");
}

TEST(Socket, ParsesHostPortSpecs) {
  Endpoint endpoint;
  std::string error;
  EXPECT_TRUE(parse_host_port("0.0.0.0:9000", &endpoint, &error));
  EXPECT_EQ(endpoint.host, "0.0.0.0");
  EXPECT_EQ(endpoint.port, 9000);
  EXPECT_TRUE(parse_host_port("7777", &endpoint, &error));
  EXPECT_EQ(endpoint.port, 7777);
  EXPECT_FALSE(parse_host_port("nope:notaport", &endpoint, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(parse_host_port("1.2.3.4:99999", &endpoint, &error));
}

TEST(Socket, ConnectBackoffGivesUpAgainstAClosedPort) {
  // Bind-and-release to get a port that is certainly closed.
  std::string error;
  const int fd = tcp_listen("127.0.0.1", 0, 1, &error);
  ASSERT_GE(fd, 0) << error;
  const int dead_port = bound_port(fd);
  ::close(fd);

  const int connected = tcp_connect_backoff("127.0.0.1", dead_port,
                                            /*attempts=*/2, /*base_s=*/0.01,
                                            /*max_s=*/0.02, &error);
  EXPECT_LT(connected, 0);
  EXPECT_FALSE(error.empty());
}

TEST(Socket, ConnectBackoffSucceedsOnceTheListenerAppears) {
  // The retry loop is the point: the first attempts fail, then the
  // listener comes up and a later attempt lands.
  std::string error;
  auto listener = Listener::bind("127.0.0.1", 0, &error);
  ASSERT_NE(listener, nullptr) << error;
  const int port = listener->port();
  // Hold the port but delay serving: connect from a thread while this
  // thread accepts after a pause.
  int connected = -1;
  std::string client_error;
  std::thread client([&] {
    connected = tcp_connect_backoff("127.0.0.1", port, /*attempts=*/10,
                                    /*base_s=*/0.01, /*max_s=*/0.05,
                                    &client_error);
  });
  int accepted = -1;
  ASSERT_EQ(poll_and_accept(*listener, &accepted, &error),
            Listener::AcceptStatus::kAccepted);
  client.join();
  ASSERT_GE(connected, 0) << client_error;
  ::close(connected);
  ::close(accepted);
}

}  // namespace
}  // namespace mfd::net
