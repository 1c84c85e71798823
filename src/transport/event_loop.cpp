#include "transport/event_loop.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/check.hpp"
#include "service/repair_messages.hpp"
#include "telemetry/flight_recorder.hpp"

namespace dmx::transport {

namespace {

std::string errno_string(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  DMX_CHECK(flags >= 0);
  DMX_CHECK(::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0);
}

void set_nodelay(int fd) {
  // One frame per protocol event; Nagle would serialize the ping-pong
  // message patterns of every algorithm behind delayed ACKs.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

/// One TCP link. The fd, read buffer, and epoll registration belong to
/// the loop thread; the outbox and its flags are shared with senders
/// under `out_mutex`. Peers are reference-counted so a sender holding a
/// pointer across teardown sees `closed` instead of freed memory.
struct EventLoop::Peer {
  int fd = -1;
  /// kNilNode until identified (dialed peers are born identified;
  /// accepted ones identify via HELLO).
  NodeId id = kNilNode;
  /// Peer announced an orderly shutdown; its EOF is not a crash.
  bool said_goodbye = false;  // loop thread only
  std::string inbuf;          // loop thread only
  bool want_write = false;    // loop thread only (EPOLLOUT armed)

  std::mutex out_mutex;
  std::condition_variable out_cv;
  std::string outbox;
  bool closed = false;
};

EventLoop::EventLoop(EventLoopConfig config, FrameHandler on_frame,
                     PeerDownHandler on_peer_down)
    : config_(config),
      on_frame_(std::move(on_frame)),
      on_peer_down_(std::move(on_peer_down)),
      ever_identified_(static_cast<std::size_t>(config_.mesh_size) + 1, 0) {
  DMX_CHECK(config_.self >= 1);
  DMX_CHECK(config_.mesh_size >= 0);
  DMX_CHECK(config_.outbox_low_watermark <= config_.outbox_high_watermark);
  Codec::ensure_registered();
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  DMX_CHECK_MSG(epoll_fd_ >= 0, errno_string("epoll_create1"));
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  DMX_CHECK_MSG(wake_fd_ >= 0, errno_string("eventfd"));
  struct epoll_event ev {};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  DMX_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) == 0);
}

EventLoop::~EventLoop() {
  stop();
  for (auto& [fd, peer] : peers_by_fd_) {
    ::close(fd);
    std::lock_guard<std::mutex> guard(peer->out_mutex);
    peer->closed = true;
  }
  peers_by_fd_.clear();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

std::uint16_t EventLoop::listen() {
  DMX_CHECK(listen_fd_ < 0);
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  DMX_CHECK_MSG(listen_fd_ >= 0, errno_string("socket"));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;  // ephemeral
  DMX_CHECK_MSG(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                       sizeof(addr)) == 0,
                errno_string("bind"));
  DMX_CHECK_MSG(::listen(listen_fd_, 64) == 0, errno_string("listen"));
  socklen_t len = sizeof(addr);
  DMX_CHECK(::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                          &len) == 0);
  struct epoll_event ev {};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  DMX_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) == 0);
  return ntohs(addr.sin_port);
}

void EventLoop::connect(NodeId peer_id, std::uint16_t port) {
  DMX_CHECK_MSG(!running_.load(), "connect() must precede start()");
  DMX_CHECK(peer_id >= 1 && peer_id != config_.self);
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  DMX_CHECK_MSG(fd >= 0, errno_string("socket"));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  // Blocking connect: loopback either succeeds immediately or the peer is
  // gone, and the rendezvous wants the failure loudly at dial time.
  DMX_CHECK_MSG(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                          sizeof(addr)) == 0,
                errno_string("connect"));
  set_nonblocking(fd);
  set_nodelay(fd);

  auto peer = std::make_shared<Peer>();
  peer->fd = fd;
  peer->id = peer_id;
  Codec::encode_control_frame(peer->outbox, kHelloWireId, config_.self);
  struct epoll_event ev {};
  ev.events = EPOLLIN;
  ev.data.fd = fd;
  DMX_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) == 0);
  {
    std::lock_guard<std::mutex> guard(dirty_mutex_);
    dirty_.push_back(peer);
  }
  {
    std::lock_guard<std::mutex> guard(peers_mutex_);
    peers_by_id_.emplace(peer_id, peer);
    if (peer_id <= config_.mesh_size) {
      ever_identified_[static_cast<std::size_t>(peer_id)] = 1;
    }
  }
  peers_by_fd_.emplace(fd, peer);
  peers_cv_.notify_all();
  // A dialed peer is born identified.
  telemetry::FlightRecorder::record(telemetry::FlightEvent::kPeerUp,
                                    /*resource=*/0, peer_id);
}

void EventLoop::start() {
  DMX_CHECK(!running_.exchange(true));
  thread_ = std::thread([this] { loop(); });
  // connect() queued HELLO frames on the dirty list before the loop
  // existed; kick it once so they flush without waiting for socket
  // traffic.
  wake();
}

void EventLoop::stop() {
  if (!running_.load()) return;
  stopping_.store(true);
  wake();
  thread_.join();
  running_.store(false);
}

void EventLoop::wake() {
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

int EventLoop::connected_peers() const {
  std::lock_guard<std::mutex> guard(peers_mutex_);
  return static_cast<int>(peers_by_id_.size());
}

bool EventLoop::wait_for_peers(int count, std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> guard(peers_mutex_);
  return peers_cv_.wait_for(guard, timeout, [this, count] {
    return static_cast<int>(peers_by_id_.size()) >= count;
  });
}

bool EventLoop::send(NodeId to, Epoch epoch, ResourceId resource,
                     const net::Message& message,
                     bool block_on_backpressure) {
  std::shared_ptr<Peer> peer;
  {
    std::lock_guard<std::mutex> guard(peers_mutex_);
    const auto it = peers_by_id_.find(to);
    if (it == peers_by_id_.end()) {
      // A mesh member that has never identified itself is still forming
      // its links, not down: hold the frame for its HELLO. Encoding under
      // peers_mutex_ orders it ahead of every frame sent after the HELLO.
      if (to < 1 || to > config_.mesh_size || to == config_.self ||
          ever_identified_[static_cast<std::size_t>(to)] != 0) {
        return false;
      }
      Codec::encode_frame(held_for_hello_[to], epoch, resource, config_.self,
                          to, message);
      stats_.frames_sent.fetch_add(1, std::memory_order_relaxed);
      telemetry::FlightRecorder::record(telemetry::FlightEvent::kFrameSend,
                                        resource, to);
      return true;
    }
    peer = it->second;
  }
  {
    std::unique_lock<std::mutex> guard(peer->out_mutex);
    if (peer->closed) return false;
    if (block_on_backpressure &&
        peer->outbox.size() >= config_.outbox_high_watermark) {
      stats_.backpressure_waits.fetch_add(1, std::memory_order_relaxed);
      telemetry::FlightRecorder::record(
          telemetry::FlightEvent::kBackpressure, resource, to,
          static_cast<std::int64_t>(peer->outbox.size()));
      wake();  // make sure the loop is draining while we wait
      peer->out_cv.wait(guard, [this, &peer] {
        return peer->closed ||
               peer->outbox.size() < config_.outbox_low_watermark;
      });
      if (peer->closed) return false;
    }
    Codec::encode_frame(peer->outbox, epoch, resource, config_.self, to,
                        message);
    const auto depth = static_cast<std::uint64_t>(peer->outbox.size());
    std::uint64_t peak =
        stats_.outbox_peak_bytes.load(std::memory_order_relaxed);
    while (depth > peak && !stats_.outbox_peak_bytes.compare_exchange_weak(
                               peak, depth, std::memory_order_relaxed)) {
    }
  }
  stats_.frames_sent.fetch_add(1, std::memory_order_relaxed);
  telemetry::FlightRecorder::record(telemetry::FlightEvent::kFrameSend,
                                    resource, to);
  {
    std::lock_guard<std::mutex> guard(dirty_mutex_);
    dirty_.push_back(peer);
  }
  wake();
  return true;
}

void EventLoop::send_frame(NodeId to, Epoch epoch, ResourceId resource,
                           net::MessagePtr message) {
  send(to, epoch, resource, *message,
       /*block_on_backpressure=*/!service::is_repair_control(*message));
}

std::optional<std::string> EventLoop::first_error() const {
  std::lock_guard<std::mutex> guard(error_mutex_);
  return first_error_;
}

void EventLoop::record_error(const std::string& what) {
  std::lock_guard<std::mutex> guard(error_mutex_);
  if (!first_error_.has_value()) first_error_ = what;
}

void EventLoop::arm(Peer& peer, bool want_write) {
  if (peer.want_write == want_write) return;
  peer.want_write = want_write;
  struct epoll_event ev {};
  ev.events = EPOLLIN | (want_write ? EPOLLOUT : 0u);
  ev.data.fd = peer.fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, peer.fd, &ev);
}

void EventLoop::flush(Peer& peer) {
  bool below_low = false;
  bool fatal = false;
  {
    std::lock_guard<std::mutex> guard(peer.out_mutex);
    if (peer.closed) return;
    while (!peer.outbox.empty()) {
      // Counted before the kernel can deliver the bytes, so a peer that
      // has received a frame never reads a total that lacks it; whatever
      // send() does not take is handed back below.
      const std::size_t attempted = peer.outbox.size();
      stats_.bytes_sent.fetch_add(attempted, std::memory_order_relaxed);
      const ssize_t n =
          ::send(peer.fd, peer.outbox.data(), attempted, MSG_NOSIGNAL);
      const std::size_t taken = n > 0 ? static_cast<std::size_t>(n) : 0;
      if (taken < attempted) {
        stats_.bytes_sent.fetch_sub(attempted - taken,
                                    std::memory_order_relaxed);
      }
      if (n > 0) {
        peer.outbox.erase(0, taken);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      fatal = true;
      break;
    }
    below_low = peer.outbox.size() < config_.outbox_low_watermark;
  }
  if (fatal) {
    drain_frames(peer);  // a buffered GOODBYE still classifies the close
    teardown(peer);
    return;
  }
  if (below_low) peer.out_cv.notify_all();
  bool pending;
  {
    std::lock_guard<std::mutex> guard(peer.out_mutex);
    pending = !peer.outbox.empty();
  }
  arm(peer, pending);
}

void EventLoop::teardown(Peer& peer) {
  const int fd = peer.fd;
  const NodeId id = peer.id;
  bool crashed = id != kNilNode && !peer.said_goodbye &&
                 !stopping_.load(std::memory_order_relaxed);
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  {
    std::lock_guard<std::mutex> guard(peer.out_mutex);
    peer.closed = true;
  }
  peer.out_cv.notify_all();
  if (id != kNilNode) {
    std::lock_guard<std::mutex> guard(peers_mutex_);
    // Only the connection registered under `id` speaks for that node.
    const auto it = peers_by_id_.find(id);
    if (it != peers_by_id_.end() && it->second.get() == &peer) {
      peers_by_id_.erase(it);
    } else {
      crashed = false;
    }
  }
  peers_by_fd_.erase(fd);  // frees `peer` unless a sender holds a ref
  if (crashed) {
    telemetry::FlightRecorder::record(telemetry::FlightEvent::kPeerDown,
                                      /*resource=*/0, id);
    if (on_peer_down_) on_peer_down_(id);
  }
}

void EventLoop::handle_accept() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      record_error(errno_string("accept4"));
      return;
    }
    set_nodelay(fd);
    auto peer = std::make_shared<Peer>();
    peer->fd = fd;
    struct epoll_event ev {};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    DMX_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) == 0);
    peers_by_fd_.emplace(fd, std::move(peer));
  }
}

bool EventLoop::on_control_frame(Peer& peer, std::uint32_t length,
                                 const FrameHeader& header) {
  const std::string who = "peer " + std::to_string(peer.id);
  // Codec::encode_control_frame writes exactly this shape; anything else
  // is a desynchronized or forged stream.
  if (length != 5 * 4 || header.epoch != 0 || header.resource != 0 ||
      header.to != kNilNode) {
    record_error(who + " sent a non-canonical control frame");
    return false;
  }
  if (header.wire_id == kGoodbyeWireId) {
    if (peer.id == kNilNode || header.from != peer.id) {
      record_error(who + " sent a GOODBYE as node " +
                   std::to_string(header.from));
      return false;
    }
    peer.said_goodbye = true;
    telemetry::FlightRecorder::record(telemetry::FlightEvent::kGoodbye,
                                      /*resource=*/0, peer.id);
    return true;
  }
  if (header.wire_id != kHelloWireId) {
    record_error("unknown control wire id " + std::to_string(header.wire_id));
    return false;
  }
  const NodeId from = header.from;
  if (from < 1 || from == config_.self ||
      (config_.mesh_size > 0 && from > config_.mesh_size)) {
    record_error(who + " sent a HELLO naming node " + std::to_string(from));
    return false;
  }
  if (peer.id != kNilNode && peer.id != from) {
    record_error(who + " re-identified as " + std::to_string(from));
    return false;
  }
  std::shared_ptr<Peer> self_ref = peers_by_fd_.at(peer.fd);
  bool impostor = false;
  bool held = false;
  {
    std::lock_guard<std::mutex> guard(peers_mutex_);
    const auto [entry, added] = peers_by_id_.emplace(from, self_ref);
    // An impostor for a connected node is refused before it takes the
    // id, so its teardown cannot touch the real peer's entry.
    impostor = !added && entry->second != self_ref;
    if (!impostor) {
      peer.id = from;
      if (from <= config_.mesh_size) {
        ever_identified_[static_cast<std::size_t>(from)] = 1;
      }
      const auto it = held_for_hello_.find(from);
      if (it != held_for_hello_.end()) {
        std::lock_guard<std::mutex> out_guard(peer.out_mutex);
        peer.outbox.append(it->second);
        held_for_hello_.erase(it);
        held = true;
      }
    }
  }
  if (impostor) {
    record_error(who + " sent a HELLO as node " + std::to_string(from) +
                 ", which is already connected");
    return false;
  }
  if (held) {
    {
      std::lock_guard<std::mutex> guard(dirty_mutex_);
      dirty_.push_back(std::move(self_ref));
    }
    wake();
  }
  peers_cv_.notify_all();
  telemetry::FlightRecorder::record(telemetry::FlightEvent::kPeerUp,
                                    /*resource=*/0, peer.id);
  return true;
}

bool EventLoop::drain_frames(Peer& peer) {
  std::size_t consumed = 0;
  const std::string& buf = peer.inbuf;
  for (;;) {
    if (buf.size() - consumed < 4) break;
    net::WireReader length_reader(
        std::string_view(buf.data() + consumed, 4));
    const std::uint32_t length = length_reader.u32();
    if (length > kMaxFrameBytes || length < 5 * 4) {
      record_error("peer " + std::to_string(peer.id) +
                   " sent a frame of " + std::to_string(length) +
                   " bytes; stream desynchronized");
      return false;
    }
    if (buf.size() - consumed - 4 < length) break;  // incomplete frame
    net::WireReader r(std::string_view(buf.data() + consumed + 4, length));
    consumed += 4 + length;
    try {
      const FrameHeader header = Codec::decode_header(r);
      if (header.wire_id >= kControlWireIdBase) {
        if (!on_control_frame(peer, length, header)) return false;
        continue;
      }
      if (peer.id == kNilNode || header.from != peer.id ||
          header.to != config_.self) {
        record_error("peer " + std::to_string(peer.id) +
                     " sent a frame from node " + std::to_string(header.from) +
                     " to node " + std::to_string(header.to));
        return false;
      }
      net::MessagePtr message = Codec::decode(header.wire_id, r);
      stats_.frames_received.fetch_add(1, std::memory_order_relaxed);
      telemetry::FlightRecorder::record(telemetry::FlightEvent::kFrameRecv,
                                        header.resource, header.from);
      if (on_frame_) on_frame_(header, std::move(message));
    } catch (const net::WireError& e) {
      record_error("frame from peer " + std::to_string(peer.id) +
                   " undecodable: " + e.what());
      return false;
    }
  }
  if (consumed > 0) peer.inbuf.erase(0, consumed);
  if (!peer.inbuf.empty()) {
    stats_.partial_frames.fetch_add(1, std::memory_order_relaxed);
  }
  return true;
}

void EventLoop::handle_readable(Peer& peer) {
  char chunk[64 * 1024];
  for (;;) {
    const ssize_t n = ::recv(peer.fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      stats_.bytes_received.fetch_add(static_cast<std::uint64_t>(n),
                                      std::memory_order_relaxed);
      peer.inbuf.append(chunk, static_cast<std::size_t>(n));
      if (static_cast<std::size_t>(n) < sizeof(chunk)) break;
      continue;
    }
    if (n == 0) {  // EOF: orderly iff GOODBYE preceded it
      drain_frames(peer);
      teardown(peer);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    // ECONNRESET and friends. Drain buffered frames before classifying
    // the close: a GOODBYE that was already read into the reassembly
    // buffer (e.g. riding the tail of the chunk before the RST) makes
    // this an orderly departure, not a crash.
    drain_frames(peer);
    teardown(peer);
    return;
  }
  if (!drain_frames(peer)) teardown(peer);
}

void EventLoop::handle_writable(Peer& peer) { flush(peer); }

void EventLoop::loop() {
  bool goodbyes_sent = false;
  std::chrono::steady_clock::time_point drain_deadline{};
  struct epoll_event events[64];
  for (;;) {
    if (stopping_.load(std::memory_order_relaxed)) {
      if (!goodbyes_sent) {
        goodbyes_sent = true;
        drain_deadline =
            std::chrono::steady_clock::now() + std::chrono::milliseconds(200);
        // Snapshot first: flush() can tear a peer down, which mutates the
        // fd map under the iteration.
        std::vector<std::shared_ptr<Peer>> peers;
        peers.reserve(peers_by_fd_.size());
        for (auto& [fd, peer] : peers_by_fd_) peers.push_back(peer);
        for (const auto& peer : peers) {
          if (peer->id == kNilNode) continue;
          {
            std::lock_guard<std::mutex> guard(peer->out_mutex);
            if (peer->closed) continue;
            Codec::encode_control_frame(peer->outbox, kGoodbyeWireId,
                                        config_.self);
          }
          flush(*peer);
        }
      }
      bool all_flushed = true;
      for (auto& [fd, peer] : peers_by_fd_) {
        std::lock_guard<std::mutex> guard(peer->out_mutex);
        all_flushed = all_flushed && peer->outbox.empty();
      }
      if (all_flushed || std::chrono::steady_clock::now() >= drain_deadline) {
        return;
      }
    }
    const int timeout_ms = goodbyes_sent ? 10 : -1;
    const int n = ::epoll_wait(epoll_fd_, events, 64, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      record_error(errno_string("epoll_wait"));
      return;
    }
    stats_.epoll_wakeups.fetch_add(1, std::memory_order_relaxed);
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        std::uint64_t drained;
        while (::read(wake_fd_, &drained, sizeof(drained)) > 0) {
        }
        std::vector<std::shared_ptr<Peer>> dirty;
        {
          std::lock_guard<std::mutex> guard(dirty_mutex_);
          dirty.swap(dirty_);
        }
        for (const auto& peer : dirty) flush(*peer);
        continue;
      }
      if (fd == listen_fd_) {
        handle_accept();
        continue;
      }
      const auto it = peers_by_fd_.find(fd);
      if (it == peers_by_fd_.end()) continue;  // torn down this batch
      // Hold a ref: handle_readable may tear the peer down mid-call.
      std::shared_ptr<Peer> peer = it->second;
      if ((events[i].events & (EPOLLERR | EPOLLHUP)) != 0) {
        handle_readable(*peer);  // drain what's left, then teardown on EOF
        continue;
      }
      if ((events[i].events & EPOLLIN) != 0) handle_readable(*peer);
      // handle_readable may have torn the peer down; the fd map is
      // loop-confined, so presence there is the live check.
      if ((events[i].events & EPOLLOUT) != 0 &&
          peers_by_fd_.count(fd) != 0) {
        handle_writable(*peer);
      }
    }
  }
}

}  // namespace dmx::transport
