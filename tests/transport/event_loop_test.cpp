// EventLoop tests: two in-process loops rendezvous over loopback TCP and
// exchange protocol frames; a raw socket exercises partial-frame
// reassembly, the GOODBYE-vs-crash disconnect distinction, and rejection
// of corrupt streams and forged control frames.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/messages.hpp"
#include "net/wire_format.hpp"
#include "transport/codec.hpp"
#include "transport/event_loop.hpp"

namespace dmx::transport {
namespace {

using namespace std::chrono_literals;

/// Frames and peer-down events collected from one loop's callbacks, with
/// a condition variable so tests can wait instead of sleeping.
struct Sink {
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<std::pair<FrameHeader, net::MessagePtr>> frames;
  std::vector<NodeId> downs;

  EventLoop::FrameHandler frame_handler() {
    return [this](const FrameHeader& header, net::MessagePtr message) {
      std::lock_guard<std::mutex> lock(mutex);
      frames.emplace_back(header, std::move(message));
      cv.notify_all();
    };
  }
  EventLoop::PeerDownHandler down_handler() {
    return [this](NodeId peer) {
      std::lock_guard<std::mutex> lock(mutex);
      downs.push_back(peer);
      cv.notify_all();
    };
  }
  bool wait_frames(std::size_t count, std::chrono::milliseconds timeout) {
    std::unique_lock<std::mutex> lock(mutex);
    return cv.wait_for(lock, timeout,
                       [&] { return frames.size() >= count; });
  }
  bool wait_down(std::chrono::milliseconds timeout) {
    std::unique_lock<std::mutex> lock(mutex);
    return cv.wait_for(lock, timeout, [&] { return !downs.empty(); });
  }
};

/// Raw blocking loopback client for byte-level protocol tests.
class RawClient {
 public:
  explicit RawClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  }
  ~RawClient() { close(); }

  void write_all(const std::string& bytes) {
    std::size_t done = 0;
    while (done < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + done, bytes.size() - done,
                               MSG_NOSIGNAL);
      ASSERT_GT(n, 0);
      done += static_cast<std::size_t>(n);
    }
  }

  /// Writes `bytes` in `chunk`-sized pieces with a small pause between
  /// each, forcing the receiving loop to buffer partial frames.
  void write_chunked(const std::string& bytes, std::size_t chunk) {
    for (std::size_t at = 0; at < bytes.size(); at += chunk) {
      write_all(bytes.substr(at, chunk));
      std::this_thread::sleep_for(2ms);
    }
  }

  void close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  /// Hard close: SO_LINGER with zero timeout makes close() send RST, so
  /// the peer sees a connection reset instead of an orderly FIN.
  void reset_close() {
    if (fd_ < 0) return;
    struct linger lin;
    lin.l_onoff = 1;
    lin.l_linger = 0;
    EXPECT_EQ(::setsockopt(fd_, SOL_SOCKET, SO_LINGER, &lin, sizeof(lin)),
              0);
    ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
};

TEST(EventLoop, TwoLoopsExchangeFramesBothWays) {
  Sink sink1;
  Sink sink2;
  EventLoop loop1({.self = 1}, sink1.frame_handler(), sink1.down_handler());
  EventLoop loop2({.self = 2}, sink2.frame_handler(), sink2.down_handler());

  const std::uint16_t port1 = loop1.listen();
  loop2.listen();
  loop2.connect(1, port1);  // mesh convention: 2 dials 1
  loop1.start();
  loop2.start();
  ASSERT_TRUE(loop1.wait_for_peers(1, 2000ms));
  ASSERT_TRUE(loop2.wait_for_peers(1, 2000ms));
  EXPECT_EQ(loop1.connected_peers(), 1);
  EXPECT_EQ(loop2.connected_peers(), 1);

  const core::RequestMessage request(2, 2);
  EXPECT_TRUE(loop2.send(1, /*epoch=*/3, /*resource=*/0, request));
  const core::PrivilegeMessage privilege;
  EXPECT_TRUE(loop1.send(2, /*epoch=*/3, /*resource=*/1, privilege));

  ASSERT_TRUE(sink1.wait_frames(1, 2000ms));
  ASSERT_TRUE(sink2.wait_frames(1, 2000ms));
  {
    std::lock_guard<std::mutex> lock(sink1.mutex);
    const auto& [header, message] = sink1.frames[0];
    EXPECT_EQ(header.from, 2);
    EXPECT_EQ(header.to, 1);
    EXPECT_EQ(header.epoch, 3u);
    EXPECT_EQ(header.resource, 0);
    EXPECT_EQ(message->encode(), request.encode());
  }
  {
    std::lock_guard<std::mutex> lock(sink2.mutex);
    const auto& [header, message] = sink2.frames[0];
    EXPECT_EQ(header.from, 1);
    EXPECT_EQ(header.resource, 1);
    EXPECT_EQ(message->encode(), privilege.encode());
  }

  // Protocol frame accounting excludes the HELLO/GOODBYE control frames.
  EXPECT_EQ(loop1.stats().frames_received.load(), 1u);
  EXPECT_EQ(loop2.stats().frames_received.load(), 1u);
  EXPECT_GT(loop1.stats().bytes_sent.load(), 0u);

  loop2.stop();
  loop1.stop();
  // Orderly shutdown on both sides: GOODBYE preceded both EOFs.
  EXPECT_TRUE(sink1.downs.empty());
  EXPECT_TRUE(sink2.downs.empty());
  EXPECT_FALSE(loop1.first_error().has_value());
  EXPECT_FALSE(loop2.first_error().has_value());
}

TEST(EventLoop, SendToUnknownPeerFails) {
  Sink sink;
  EventLoop loop({.self = 1}, sink.frame_handler(), sink.down_handler());
  loop.listen();
  loop.start();
  EXPECT_FALSE(loop.send(7, 0, 0, core::PrivilegeMessage()));
  loop.stop();
}

TEST(EventLoop, FramesToAMemberAwaitingHelloAreHeldUntilItIdentifies) {
  // Mesh formation: node 1 must forward a frame to node 2 before node 2
  // has dialed in. Knowing the mesh, the loop holds the frame and flushes
  // it, ahead of later traffic, once node 2's HELLO identifies it.
  Sink sink1;
  Sink sink2;
  EventLoop loop1({.self = 1, .mesh_size = 2}, sink1.frame_handler(),
                  sink1.down_handler());
  const std::uint16_t port1 = loop1.listen();
  loop1.start();
  const core::RequestMessage early(1, 1);
  EXPECT_TRUE(loop1.send(2, /*epoch=*/0, /*resource=*/4, early));
  EXPECT_FALSE(loop1.send(3, 0, 0, core::PrivilegeMessage()))
      << "a non-member is unknown, not pending";

  {
    EventLoop loop2({.self = 2, .mesh_size = 2}, sink2.frame_handler(),
                    sink2.down_handler());
    loop2.listen();
    loop2.connect(1, port1);
    loop2.start();
    ASSERT_TRUE(loop1.wait_for_peers(1, 2000ms));
    const core::PrivilegeMessage later;
    EXPECT_TRUE(loop1.send(2, /*epoch=*/0, /*resource=*/5, later));

    ASSERT_TRUE(sink2.wait_frames(2, 2000ms));
    {
      std::lock_guard<std::mutex> lock(sink2.mutex);
      EXPECT_EQ(sink2.frames[0].first.resource, 4);
      EXPECT_EQ(sink2.frames[0].second->encode(), early.encode());
      EXPECT_EQ(sink2.frames[1].first.resource, 5);
    }
    loop2.stop();
    EXPECT_FALSE(loop2.first_error().has_value());
  }  // node 2's sockets close here

  const auto deadline = std::chrono::steady_clock::now() + 2000ms;
  while (loop1.connected_peers() > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_EQ(loop1.connected_peers(), 0);
  EXPECT_FALSE(loop1.send(2, 0, 0, core::PrivilegeMessage()))
      << "a member that left is down, not pending";
  loop1.stop();
  EXPECT_FALSE(loop1.first_error().has_value());
}

TEST(EventLoop, ReassemblesFramesSplitAcrossReads) {
  Sink sink;
  EventLoop loop({.self = 1}, sink.frame_handler(), sink.down_handler());
  const std::uint16_t port = loop.listen();
  loop.start();

  RawClient client(port);
  // HELLO as node 9, then two protocol frames, all dribbled 3 bytes at a
  // time so every frame arrives across several reads.
  std::string bytes;
  Codec::encode_control_frame(bytes, kHelloWireId, /*from=*/9);
  Codec::encode_frame(bytes, /*epoch=*/1, /*resource=*/2, /*from=*/9,
                      /*to=*/1, core::RequestMessage(9, 9));
  Codec::encode_frame(bytes, /*epoch=*/1, /*resource=*/2, /*from=*/9,
                      /*to=*/1, core::PrivilegeMessage());
  client.write_chunked(bytes, 3);

  ASSERT_TRUE(sink.wait_frames(2, 5000ms));
  {
    std::lock_guard<std::mutex> lock(sink.mutex);
    EXPECT_EQ(sink.frames[0].first.from, 9);
    EXPECT_EQ(sink.frames[0].second->encode(),
              core::RequestMessage(9, 9).encode());
    EXPECT_EQ(sink.frames[1].second->encode(),
              core::PrivilegeMessage().encode());
  }
  EXPECT_TRUE(loop.wait_for_peers(1, 1000ms));
  EXPECT_GT(loop.stats().partial_frames.load(), 0u);

  // Abrupt close without GOODBYE: the identified peer is reported down.
  client.close();
  ASSERT_TRUE(sink.wait_down(2000ms));
  EXPECT_EQ(sink.downs[0], 9);
  loop.stop();
}

TEST(EventLoop, GoodbyeThenCloseIsNotACrash) {
  Sink sink;
  EventLoop loop({.self = 1}, sink.frame_handler(), sink.down_handler());
  const std::uint16_t port = loop.listen();
  loop.start();

  RawClient client(port);
  std::string bytes;
  Codec::encode_control_frame(bytes, kHelloWireId, /*from=*/4);
  client.write_all(bytes);
  ASSERT_TRUE(loop.wait_for_peers(1, 2000ms));

  std::string goodbye;
  Codec::encode_control_frame(goodbye, kGoodbyeWireId, /*from=*/4);
  client.write_all(goodbye);
  client.close();

  // Give the loop ample time to process EOF; no peer-down may fire.
  EXPECT_FALSE(sink.wait_down(300ms));
  loop.stop();
  EXPECT_TRUE(sink.downs.empty());
  EXPECT_FALSE(loop.first_error().has_value());
}

TEST(EventLoop, GoodbyeBufferedBehindResetIsNotACrash) {
  // Regression for the GOODBYE-vs-EOF race: the peer's GOODBYE is still
  // in the reassembly buffer when the socket errors out. The loop's read
  // path must drain buffered frames BEFORE classifying the close, or an
  // orderly departure is misreported as a crash (and, in the lock space
  // above, needlessly fences the epoch).
  //
  // Deterministic construction: queue exactly one 64 KiB read chunk —
  // HELLO + 2 request frames + 2726 privilege frames + GOODBYE = 65536
  // bytes — then reset-close, all before the loop starts. The loop's
  // first recv() fills its whole chunk buffer (GOODBYE at the tail goes
  // into the reassembly buffer), the second recv() reports ECONNRESET
  // with the GOODBYE not yet processed.
  Sink sink;
  EventLoop loop({.self = 1}, sink.frame_handler(), sink.down_handler());
  const std::uint16_t port = loop.listen();

  std::string bytes;
  Codec::encode_control_frame(bytes, kHelloWireId, /*from=*/3);
  for (int i = 0; i < 2; ++i) {
    Codec::encode_frame(bytes, /*epoch=*/0, /*resource=*/0, /*from=*/3,
                        /*to=*/1, core::RequestMessage(3, 3));
  }
  for (int i = 0; i < 2726; ++i) {
    Codec::encode_frame(bytes, /*epoch=*/0, /*resource=*/0, /*from=*/3,
                        /*to=*/1, core::PrivilegeMessage());
  }
  Codec::encode_control_frame(bytes, kGoodbyeWireId, /*from=*/3);
  ASSERT_EQ(bytes.size(), 64u * 1024u);

  RawClient client(port);
  client.write_all(bytes);
  client.reset_close();
  loop.start();

  // Every protocol frame is delivered, and the buffered GOODBYE
  // classifies the reset as an orderly departure: no peer-down.
  ASSERT_TRUE(sink.wait_frames(2728, 5000ms));
  EXPECT_FALSE(sink.wait_down(300ms));
  loop.stop();
  EXPECT_TRUE(sink.downs.empty());
  EXPECT_FALSE(loop.first_error().has_value());
}

TEST(EventLoop, CorruptStreamTearsThePeerDown) {
  Sink sink;
  EventLoop loop({.self = 1}, sink.frame_handler(), sink.down_handler());
  const std::uint16_t port = loop.listen();
  loop.start();

  RawClient client(port);
  std::string bytes;
  Codec::encode_control_frame(bytes, kHelloWireId, /*from=*/5);
  // A length prefix far beyond kMaxFrameBytes: a desynchronized stream.
  net::WireWriter writer(bytes);
  writer.u32(kMaxFrameBytes + 1);
  client.write_all(bytes);

  ASSERT_TRUE(sink.wait_down(2000ms));
  EXPECT_EQ(sink.downs[0], 5);
  ASSERT_TRUE(loop.first_error().has_value());
  loop.stop();
}

TEST(EventLoop, ForgedSenderTearsThePeerDown) {
  // A peer identified as node 2 sends a frame claiming to come from node
  // 3: the frame is not delivered, the error is recorded, and the peer is
  // reported down.
  Sink sink;
  EventLoop loop({.self = 1}, sink.frame_handler(), sink.down_handler());
  const std::uint16_t port = loop.listen();
  loop.start();

  RawClient client(port);
  std::string bytes;
  Codec::encode_control_frame(bytes, kHelloWireId, /*from=*/2);
  Codec::encode_frame(bytes, /*epoch=*/0, /*resource=*/0, /*from=*/3,
                      /*to=*/1, core::RequestMessage(3, 3));
  client.write_all(bytes);

  ASSERT_TRUE(sink.wait_down(2000ms));
  EXPECT_EQ(sink.downs[0], 2);
  EXPECT_TRUE(sink.frames.empty());
  ASSERT_TRUE(loop.first_error().has_value());
  loop.stop();
}

TEST(EventLoop, HelloNamingAnotherIdTearsThePeerDown) {
  // A peer identified as node 2 sends a second HELLO as node 3: it is torn
  // down and reported down as node 2, and the loop keeps running.
  Sink sink;
  EventLoop loop({.self = 1}, sink.frame_handler(), sink.down_handler());
  const std::uint16_t port = loop.listen();
  loop.start();

  RawClient client(port);
  std::string bytes;
  Codec::encode_control_frame(bytes, kHelloWireId, /*from=*/2);
  Codec::encode_control_frame(bytes, kHelloWireId, /*from=*/3);
  client.write_all(bytes);

  ASSERT_TRUE(sink.wait_down(2000ms));
  EXPECT_EQ(sink.downs[0], 2);
  ASSERT_TRUE(loop.first_error().has_value());
  loop.stop();
}

TEST(EventLoop, ProtocolFrameBeforeHelloIsRejected) {
  Sink sink;
  EventLoop loop({.self = 1}, sink.frame_handler(), sink.down_handler());
  const std::uint16_t port = loop.listen();
  loop.start();

  RawClient client(port);
  std::string bytes;
  Codec::encode_frame(bytes, /*epoch=*/0, /*resource=*/0, /*from=*/2,
                      /*to=*/1, core::RequestMessage(2, 2));
  client.write_all(bytes);

  // The anonymous peer is torn down; nothing is delivered and, having
  // never identified itself, it is not reported as a crashed node.
  const auto deadline = std::chrono::steady_clock::now() + 2000ms;
  while (!loop.first_error().has_value() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_TRUE(loop.first_error().has_value());
  EXPECT_FALSE(sink.wait_down(100ms));
  EXPECT_TRUE(sink.frames.empty());
  loop.stop();
}

TEST(EventLoop, UnknownWireIdIsRejectedNotDelivered) {
  Sink sink;
  EventLoop loop({.self = 1}, sink.frame_handler(), sink.down_handler());
  const std::uint16_t port = loop.listen();
  loop.start();

  RawClient client(port);
  std::string bytes;
  Codec::encode_control_frame(bytes, kHelloWireId, /*from=*/6);
  // A well-framed body whose wire id is unregistered (below the control
  // range, above every family).
  std::string body;
  net::WireWriter body_writer(body);
  body_writer.u32(0x00ffffffu);  // wire id
  body_writer.u32(0);            // epoch
  body_writer.i32(0);            // resource
  body_writer.i32(6);            // from
  body_writer.i32(1);            // to
  net::WireWriter frame_writer(bytes);
  frame_writer.u32(static_cast<std::uint32_t>(body.size()));
  bytes += body;
  client.write_all(bytes);

  ASSERT_TRUE(sink.wait_down(2000ms));
  EXPECT_EQ(sink.downs[0], 6);
  EXPECT_TRUE(sink.frames.empty());
  loop.stop();
}

/// Polls until `loop` records an error (or `timeout` passes).
bool wait_error(const EventLoop& loop, std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!loop.first_error().has_value() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  return loop.first_error().has_value();
}

/// A control frame with every header field chosen by the caller, plus
/// `payload_bytes` trailing zero bytes.
std::string control_frame(std::uint32_t wire_id, Epoch epoch,
                          ResourceId resource, NodeId from, NodeId to,
                          std::size_t payload_bytes = 0) {
  std::string body;
  net::WireWriter body_writer(body);
  body_writer.u32(wire_id);
  body_writer.u32(epoch);
  body_writer.i32(resource);
  body_writer.i32(from);
  body_writer.i32(to);
  body.append(payload_bytes, '\0');
  std::string frame;
  net::WireWriter frame_writer(frame);
  frame_writer.u32(static_cast<std::uint32_t>(body.size()));
  return frame + body;
}

TEST(EventLoop, ImpostorHelloDoesNotTakeDownTheConnectedPeer) {
  // Node 4 is connected; a second connection says HELLO as node 4. The
  // impostor is torn down with an error recorded, and neither its HELLO
  // nor its close touches the real node 4: no peer-down, still routable,
  // still delivering.
  Sink sink;
  EventLoop loop({.self = 1}, sink.frame_handler(), sink.down_handler());
  const std::uint16_t port = loop.listen();
  loop.start();

  RawClient real(port);
  std::string hello;
  Codec::encode_control_frame(hello, kHelloWireId, /*from=*/4);
  real.write_all(hello);
  ASSERT_TRUE(loop.wait_for_peers(1, 2000ms));

  RawClient impostor(port);
  impostor.write_all(hello);
  EXPECT_TRUE(wait_error(loop, 2000ms));
  impostor.close();

  EXPECT_FALSE(sink.wait_down(300ms));
  EXPECT_EQ(loop.connected_peers(), 1);
  EXPECT_TRUE(loop.send(4, 0, 0, core::PrivilegeMessage()));
  std::string frame;
  Codec::encode_frame(frame, /*epoch=*/0, /*resource=*/0, /*from=*/4,
                      /*to=*/1, core::RequestMessage(4, 4));
  real.write_all(frame);
  ASSERT_TRUE(sink.wait_frames(1, 2000ms));
  loop.stop();
  EXPECT_TRUE(sink.downs.empty());
}

TEST(EventLoop, NonCanonicalControlFramesAreRejected) {
  // Each HELLO differs from Codec::encode_control_frame's in one field
  // (or carries a payload); none may identify the peer.
  const std::string forged[] = {
      control_frame(kHelloWireId, /*epoch=*/7, 0, /*from=*/9, kNilNode),
      control_frame(kHelloWireId, 0, /*resource=*/3, /*from=*/9, kNilNode),
      control_frame(kHelloWireId, 0, 0, /*from=*/9, /*to=*/1),
      control_frame(kHelloWireId, 0, 0, /*from=*/9, kNilNode,
                    /*payload_bytes=*/4),
  };
  for (const std::string& bytes : forged) {
    Sink sink;
    EventLoop loop({.self = 1}, sink.frame_handler(), sink.down_handler());
    const std::uint16_t port = loop.listen();
    loop.start();
    RawClient client(port);
    client.write_all(bytes);
    EXPECT_TRUE(wait_error(loop, 2000ms));
    EXPECT_FALSE(loop.wait_for_peers(1, 100ms));
    loop.stop();
    EXPECT_TRUE(sink.downs.empty());
  }
}

TEST(EventLoop, HelloNamingSelfOrANonMemberIsRejected) {
  for (const NodeId from : {NodeId{1}, NodeId{0}, NodeId{-2}, NodeId{5}}) {
    Sink sink;
    EventLoop loop({.self = 1, .mesh_size = 4}, sink.frame_handler(),
                   sink.down_handler());
    const std::uint16_t port = loop.listen();
    loop.start();
    RawClient client(port);
    std::string hello;
    Codec::encode_control_frame(hello, kHelloWireId, from);
    client.write_all(hello);
    EXPECT_TRUE(wait_error(loop, 2000ms)) << "HELLO as node " << from;
    EXPECT_EQ(loop.connected_peers(), 0) << "HELLO as node " << from;
    loop.stop();
    EXPECT_TRUE(sink.downs.empty());
  }
}

TEST(EventLoop, GoodbyeNamingAnotherNodeIsACrash) {
  // Node 4 says GOODBYE as node 5: not an orderly departure of node 4,
  // which is torn down and reported down.
  Sink sink;
  EventLoop loop({.self = 1}, sink.frame_handler(), sink.down_handler());
  const std::uint16_t port = loop.listen();
  loop.start();

  RawClient client(port);
  std::string bytes;
  Codec::encode_control_frame(bytes, kHelloWireId, /*from=*/4);
  Codec::encode_control_frame(bytes, kGoodbyeWireId, /*from=*/5);
  client.write_all(bytes);

  ASSERT_TRUE(sink.wait_down(2000ms));
  EXPECT_EQ(sink.downs[0], 4);
  EXPECT_TRUE(loop.first_error().has_value());
  loop.stop();
}

}  // namespace
}  // namespace dmx::transport
