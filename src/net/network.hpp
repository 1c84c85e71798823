// Simulated fully connected reliable network with per-channel FIFO.
//
// Reproduces the paper's network assumptions (Chapter 2): nodes are fully
// connected by a reliable network, and "messages sent by the same node are
// not allowed to overtake each other while in transit". We enforce FIFO
// per ordered (from, to) channel by never scheduling a delivery earlier
// than the previous delivery on the same channel.
//
// The network is also the measurement point for every message-complexity
// experiment: it counts sends per message kind, accounts payload bytes,
// and exposes the set of in-flight messages so invariant checkers can
// verify token uniqueness including PRIVILEGE messages in transit.
//
// Hot-path layout (the zero-allocation kernel):
//  * the per-channel FIFO clamp is a dense vector<Tick> indexed by
//    from * (n + 1) + to — one cache line probe, no hashing;
//  * in-flight envelopes live in a slot map with an intrusive free list;
//    slots recycle, so steady-state send/deliver never allocates;
//  * per-kind counters are a flat vector indexed by interned MessageKind
//    id; the string-keyed map view is materialized only for reporting.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "net/latency.hpp"
#include "net/message.hpp"
#include "sim/simulator.hpp"

namespace dmx::net {

/// A message in flight or being delivered. One network carries every
/// resource of a multi-resource LockSpace: the resource id demultiplexes
/// deliveries into per-resource protocol instances. Single-resource
/// substrates leave it at 0.
struct Envelope {
  std::uint64_t id = 0;
  ResourceId resource = 0;
  NodeId from = kNilNode;
  NodeId to = kNilNode;
  Tick sent_at = 0;
  Tick deliver_at = 0;
  /// Epoch of the sender's world for this resource. The receiving node
  /// runtime fences it at admission (service/node_runtime.hpp): a
  /// PRIVILEGE minted before a crash-repair never reaches the
  /// regenerated world.
  Epoch epoch = 0;
  MessagePtr message;
};

/// Aggregate send counters, keyed by interned message kind.
struct MessageStats {
  std::uint64_t total_sent = 0;
  std::uint64_t total_dropped = 0;
  std::uint64_t total_duplicated = 0;
  std::uint64_t total_payload_bytes = 0;
  /// Sends per kind, indexed by MessageKind::id(). May be shorter than
  /// MessageKind::registered_count(); missing entries mean zero.
  std::vector<std::uint64_t> sent_by_kind_id;

  /// Count for one kind (0 if never sent).
  std::uint64_t sent(MessageKind kind) const;
  std::uint64_t sent(std::string_view kind) const;

  /// Lazy reporting view: kind string -> count, kinds with zero sends
  /// omitted. Builds a fresh map; not for hot paths.
  std::map<std::string, std::uint64_t> by_kind() const;
};

/// Observer hooks for tracing; both calls happen after counters update.
class NetworkObserver {
 public:
  virtual ~NetworkObserver() = default;
  virtual void on_send(const Envelope& env) = 0;
  virtual void on_deliver(const Envelope& env) = 0;
};

class Network {
 public:
  /// Delivery callback: invoked in virtual time when a message arrives.
  /// The handler may take the envelope's message; the envelope is
  /// discarded after it returns.
  using DeliveryHandler = std::function<void(Envelope&)>;

  /// `n` nodes are numbered 1..n. The latency model must outlive sampling
  /// (owned here). `seed` drives latency sampling only.
  Network(sim::Simulator& sim, int n, std::unique_ptr<LatencyModel> latency,
          std::uint64_t seed = 1);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  int size() const { return n_; }

  /// Sends `message` from `from` to `to` (both in 1..n, from != to).
  /// Delivery is scheduled on the simulator; the handler fires at the
  /// delivery tick. Equivalent to send(0, from, to, message).
  void send(NodeId from, NodeId to, MessagePtr message);

  /// Resource-tagged send: the envelope carries `resource` so the delivery
  /// handler can route it to the right protocol instance, and per-resource
  /// counters are maintained. FIFO is still per ordered (from, to) channel
  /// across all resources (one physical link per node pair). Equivalent
  /// to the epoch-stamped send at epoch 0.
  void send(ResourceId resource, NodeId from, NodeId to, MessagePtr message);
  /// Epoch-stamped send: as above but the envelope carries the sender's
  /// world epoch.
  void send(ResourceId resource, NodeId from, NodeId to, MessagePtr message,
            Epoch epoch);

  /// Installs the delivery handler (the harness). Must be set before the
  /// first delivery fires.
  void set_delivery_handler(DeliveryHandler handler);

  /// Optional tracing observer (not owned). Pass nullptr to clear.
  void set_observer(NetworkObserver* observer) { observer_ = observer; }

  const MessageStats& stats() const { return stats_; }

  /// Per-resource send counters (zeros for a resource never sent on).
  const MessageStats& stats(ResourceId resource) const;

  /// Resets counters (not in-flight messages); used between measurement
  /// epochs so each probe counts only its own traffic.
  void reset_stats();

  // --- Failure injection ---------------------------------------------------
  // The paper assumes a reliable network (Chapter 2). These knobs break
  // that assumption on purpose: failure-injection tests demonstrate that
  // the assumption is load-bearing (a lost PRIVILEGE is a lost token; a
  // lost REQUEST is a starved node) and that the invariant checkers
  // actually detect the damage.

  /// Every subsequent message is dropped with probability `p` (sampled
  /// from this network's deterministic RNG).
  void set_drop_probability(double p);

  /// Drops the next sent message of kind `kind` (one-shot).
  void drop_next(std::string_view kind);

  /// Duplicates the next sent message of kind `kind` (one-shot): a second,
  /// independent envelope with a cloned message is scheduled on the same
  /// channel, FIFO-behind the original. A duplicated PRIVILEGE/TOKEN is a
  /// forged second token — the token-uniqueness invariant must catch it,
  /// which is exactly what the swarm tester and failure-injection tests
  /// assert. The duplicate counts toward total_sent and per-kind stats
  /// (it does traverse the network) plus total_duplicated.
  void duplicate_next(std::string_view kind);

  // --- Crash faults and link faults ---------------------------------------
  // Node-level and link-level reachability state consumed by the fault
  // substrate (src/fault). All O(1) per send/deliver: node state is a
  // dense byte vector, link state a dense (n+1)^2 byte table.

  /// Marks node `v` crashed: subsequent sends to or from it are dropped at
  /// send, and envelopes already in flight toward it are discarded at
  /// their delivery tick (the wire does not care that the plug was pulled
  /// mid-transit). Dead drops count into total_dropped.
  void set_node_down(NodeId v);

  /// Marks node `v` reachable again. In-flight state is unaffected.
  void set_node_up(NodeId v);

  bool is_node_down(NodeId v) const;

  /// Severs the link between `a` and `b` symmetrically: sends either way
  /// are dropped (counted into total_dropped) until heal(a, b).
  void partition(NodeId a, NodeId b);

  /// Restores the link between `a` and `b`.
  void heal(NodeId a, NodeId b);

  bool is_partitioned(NodeId a, NodeId b) const;

  /// Why an in-flight envelope was discarded instead of delivered.
  enum class DiscardReason : std::uint8_t { kDeadDestination };

  /// Called at the delivery tick of every discarded envelope, after
  /// counters are decremented. The LockSpace hooks this to re-check token
  /// uniqueness exactly where token loss becomes observable. Pass nullptr
  /// to clear.
  using DiscardHandler = std::function<void(const Envelope&, DiscardReason)>;
  void set_discard_handler(DiscardHandler handler);

  /// Number of messages currently in flight.
  std::size_t in_flight_count() const { return in_flight_count_; }

  /// Number of in-flight messages of one kind on one resource stamped
  /// with exactly `epoch` (a single-resource substrate asks for resource
  /// 0, epoch 0). O(1): counters are maintained on send/deliver, because
  /// the LockSpace re-checks token uniqueness for the touched resource
  /// after every event. Counting only the current epoch's tokens keeps a
  /// stale PRIVILEGE still in flight (it will be fenced) from making a
  /// regenerated token look like a duplicate.
  std::size_t in_flight_count(ResourceId resource, Epoch epoch,
                              MessageKind kind) const;

  /// Visits every in-flight envelope (order unspecified).
  void for_each_in_flight(
      const std::function<void(const Envelope&)>& fn) const;

 private:
  static constexpr std::uint32_t kNpos = 0xffffffffu;

  struct EnvelopeSlot {
    Envelope env;
    std::uint32_t next_free = kNpos;
    bool active = false;
  };

  void deliver(std::uint32_t slot_index);
  void discard(Envelope env, DiscardReason reason);
  std::uint32_t acquire_slot();
  std::size_t link_index(NodeId a, NodeId b) const {
    return static_cast<std::size_t>(a) * static_cast<std::size_t>(n_ + 1) +
           static_cast<std::size_t>(b);
  }

  sim::Simulator& sim_;
  int n_;
  std::unique_ptr<LatencyModel> latency_;
  Rng rng_;
  double drop_probability_ = 0.0;
  MessageKind drop_next_kind_;       // invalid = disarmed
  MessageKind duplicate_next_kind_;  // invalid = disarmed
  DeliveryHandler handler_;
  NetworkObserver* observer_ = nullptr;
  std::uint64_t next_envelope_id_ = 1;
  MessageStats stats_;
  // Last scheduled delivery tick per ordered channel, dense (n+1)^2 table
  // indexed by from * (n + 1) + to.
  std::vector<Tick> channel_last_delivery_;
  // In-flight envelopes: slot map with intrusive free list.
  std::vector<EnvelopeSlot> slots_;
  std::uint32_t free_head_ = kNpos;
  std::size_t in_flight_count_ = 0;
  std::vector<MessageStats> resource_stats_;
  // Fault state. In-flight messages are counted per [resource][epoch][kind
  // id], grown on first use (steady state allocates nothing); epochs stay
  // tiny (one bump per repair), so the layer remains dense and O(1) to
  // probe.
  std::vector<std::uint8_t> node_down_;        // index 1..n, 1 = crashed
  std::vector<std::uint8_t> link_severed_;     // dense (n+1)^2, symmetric
  std::vector<std::vector<std::vector<std::size_t>>> in_flight_by_epoch_;
  DiscardHandler discard_handler_;
};

}  // namespace dmx::net
