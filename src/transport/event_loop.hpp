// Non-blocking epoll event loop shipping codec frames between processes.
//
// One EventLoop per process: a listening loopback TCP socket, one
// non-blocking connection per peer node, and a single loop thread that
// owns every file descriptor. The loop multiplexes with epoll; an eventfd
// wakes it when application threads queue outbound frames or request
// shutdown. All socket reads and writes happen on the loop thread — the
// send path only appends encoded bytes to a peer's outbox under a short
// mutex, so senders never block on the kernel.
//
// Peer identity: the mesh convention is that node i dials every peer
// j < i and accepts connections from every j > i (no duplicate links).
// A dialed peer is identified immediately; an accepted one is anonymous
// until its HELLO control frame arrives. A protocol frame from a peer
// that has not identified itself, a frame whose header names another
// sender, or a second HELLO naming another id is a forgery: the peer is
// torn down and an error recorded. send() to a peer that has not
// identified itself yet fails — unless the loop knows the mesh
// (EventLoopConfig::mesh_size) and the peer is a member it has never
// seen: then the frame is held and flushed, ahead of later frames, when
// the HELLO lands. That covers mesh formation, where a sibling that
// finished its own wait_for_peers() can send a request this node must
// forward to a peer whose HELLO is still in flight. Call wait_for_peers()
// before starting traffic of your own.
//
// Backpressure: each peer's outbox is bounded. When it passes the high
// watermark, send() blocks the calling thread until the loop drains it
// below the low watermark (the loop thread itself never blocks). Stats
// record the peak outbox depth and how often senders had to wait.
//
// Disconnects: a peer that closes its socket after sending GOODBYE left
// deliberately (process shutdown); anything else — EOF without GOODBYE,
// a socket error, a malformed frame — is a crash, reported through
// on_peer_down to the node's runtime (service/node_runtime.hpp), which
// repairs around it exactly as it does for a cut in-process link.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "net/message.hpp"
#include "service/transport.hpp"
#include "transport/codec.hpp"

namespace dmx::transport {

/// Loop-lifetime counters (monotonic, relaxed; read after quiesce or as
/// a progress snapshot).
struct EventLoopStats {
  std::atomic<std::uint64_t> frames_sent{0};
  std::atomic<std::uint64_t> frames_received{0};
  std::atomic<std::uint64_t> bytes_sent{0};
  std::atomic<std::uint64_t> bytes_received{0};
  /// Reads that left a partial frame buffered for reassembly.
  std::atomic<std::uint64_t> partial_frames{0};
  /// send() calls that blocked on the outbox high watermark.
  std::atomic<std::uint64_t> backpressure_waits{0};
  /// Deepest outbox observed (bytes), across all peers.
  std::atomic<std::uint64_t> outbox_peak_bytes{0};
  /// epoll_wait returns (each is one loop-thread wakeup, whatever mix of
  /// socket and eventfd readiness it carried).
  std::atomic<std::uint64_t> epoll_wakeups{0};
};

struct EventLoopConfig {
  NodeId self = kNilNode;
  /// Outbox bytes at which send() starts blocking the caller.
  std::size_t outbox_high_watermark = 4u << 20;
  /// Outbox bytes at which blocked senders are released.
  std::size_t outbox_low_watermark = 1u << 20;
  /// Nodes of the full mesh (ids 1..mesh_size), or 0 if unknown. When
  /// set, frames to a member not identified yet are held for its HELLO.
  int mesh_size = 0;
};

/// The TCP service::Transport: send_frame encodes onto the peer's socket.
class EventLoop final : public service::Transport {
 public:
  /// Delivery of one decoded protocol frame. Runs on the loop thread —
  /// hand the message to a strand or queue, do not block.
  using FrameHandler =
      std::function<void(const FrameHeader&, net::MessagePtr)>;
  /// A peer crashed (disconnected without GOODBYE) or sent garbage.
  /// Runs on the loop thread.
  using PeerDownHandler = std::function<void(NodeId)>;

  EventLoop(EventLoopConfig config, FrameHandler on_frame,
            PeerDownHandler on_peer_down);
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Binds the loopback listening socket (ephemeral port) and returns the
  /// port for the rendezvous. Call once, before start().
  std::uint16_t listen();

  /// Dials peer `peer` at loopback `port` and queues the HELLO frame.
  /// Call before start() (the mesh convention: dial every lower id).
  void connect(NodeId peer, std::uint16_t port);

  /// Starts the loop thread. listen() and all connect() calls must be
  /// done.
  void start();

  /// Sends GOODBYE to every peer, flushes outboxes, stops the loop
  /// thread, and closes every socket. Idempotent.
  void stop();

  /// Number of identified peers currently connected.
  int connected_peers() const;

  /// Blocks until `count` peers are identified, or the deadline passes
  /// (false). Use after start() to rendezvous the full mesh.
  bool wait_for_peers(int count, std::chrono::milliseconds timeout);

  /// Encodes `message` into a frame and queues it to `to`'s outbox;
  /// wakes the loop to flush. Returns false if the peer is unknown or
  /// down. Blocks (briefly) on outbox backpressure unless
  /// `block_on_backpressure` is false — pass false when calling from the
  /// loop thread itself (repair announcements and acks), which must
  /// never wait for a drain only it can perform. Thread-safe. Throws
  /// net::WireError for a message class with no registered codec.
  bool send(NodeId to, Epoch epoch, ResourceId resource,
            const net::Message& message, bool block_on_backpressure = true);

  /// service::Transport: send() that never blocks on a repair control
  /// frame (its sender holds a repair mutex this loop's thread may need).
  /// A frame to a peer that is gone is dropped.
  void send_frame(NodeId to, Epoch epoch, ResourceId resource,
                  net::MessagePtr message) override;

  const EventLoopStats& stats() const { return stats_; }

  /// First transport-level error observed (malformed frame, socket
  /// error), if any.
  std::optional<std::string> first_error() const;

 private:
  struct Peer;

  void wake();
  void loop();
  void handle_accept();
  void handle_readable(Peer& peer);
  void handle_writable(Peer& peer);
  /// Parses complete frames out of `peer`'s read buffer; returns false if
  /// the stream is corrupt (caller tears the peer down).
  bool drain_frames(Peer& peer);
  /// Acts on one HELLO or GOODBYE of `length` body bytes; returns false
  /// (after recording an error) if it is not canonical or names an id
  /// the peer may not take.
  bool on_control_frame(Peer& peer, std::uint32_t length,
                        const FrameHeader& header);
  /// Flushes as much outbox as the socket accepts; arms EPOLLOUT on a
  /// partial write. Loop thread only.
  void flush(Peer& peer);
  void arm(Peer& peer, bool want_write);
  /// Closes and forgets the peer; fires on_peer_down unless the peer said
  /// GOODBYE (or was never identified).
  void teardown(Peer& peer);
  void record_error(const std::string& what);

  EventLoopConfig config_;
  FrameHandler on_frame_;
  PeerDownHandler on_peer_down_;
  EventLoopStats stats_;

  int epoll_fd_ = -1;
  int listen_fd_ = -1;
  int wake_fd_ = -1;
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  /// All live peers, keyed by fd. The map itself is loop-thread-owned
  /// once start() runs (mutations before start() are single-threaded);
  /// peers are reference-counted so a sender holding one across teardown
  /// sees its `closed` flag instead of freed memory.
  std::unordered_map<int, std::shared_ptr<Peer>> peers_by_fd_;

  /// Identified peers by node id, for the send path.
  mutable std::mutex peers_mutex_;
  std::condition_variable peers_cv_;
  std::unordered_map<NodeId, std::shared_ptr<Peer>> peers_by_id_;
  /// Under peers_mutex_: by mesh member id, whether it was ever
  /// identified, and the encoded frames held for it until it is.
  std::vector<std::uint8_t> ever_identified_;
  std::unordered_map<NodeId, std::string> held_for_hello_;

  /// Peers with freshly queued output, for the loop to flush on wake.
  std::mutex dirty_mutex_;
  std::vector<std::shared_ptr<Peer>> dirty_;

  mutable std::mutex error_mutex_;
  std::optional<std::string> first_error_;
};

}  // namespace dmx::transport
