#include "net/network.hpp"

#include <algorithm>
#include <utility>

namespace dmx::net {

std::uint64_t MessageStats::sent(MessageKind kind) const {
  if (!kind.valid() || kind.id() >= sent_by_kind_id.size()) return 0;
  return sent_by_kind_id[kind.id()];
}

std::uint64_t MessageStats::sent(std::string_view kind) const {
  return sent(MessageKind::lookup(kind));
}

std::map<std::string, std::uint64_t> MessageStats::by_kind() const {
  std::map<std::string, std::uint64_t> view;
  for (std::uint32_t id = 0; id < sent_by_kind_id.size(); ++id) {
    if (sent_by_kind_id[id] == 0) continue;
    view.emplace(std::string(MessageKind::from_id(id).name()),
                 sent_by_kind_id[id]);
  }
  return view;
}

Network::Network(sim::Simulator& sim, int n,
                 std::unique_ptr<LatencyModel> latency, std::uint64_t seed)
    : sim_(sim), n_(n), latency_(std::move(latency)), rng_(seed) {
  DMX_CHECK(n_ >= 1);
  DMX_CHECK(latency_ != nullptr);
  channel_last_delivery_.assign(
      static_cast<std::size_t>(n_ + 1) * static_cast<std::size_t>(n_ + 1), 0);
  node_down_.assign(static_cast<std::size_t>(n_ + 1), 0);
  link_severed_.assign(channel_last_delivery_.size(), 0);
}

void Network::set_delivery_handler(DeliveryHandler handler) {
  handler_ = std::move(handler);
}

std::uint32_t Network::acquire_slot() {
  if (free_head_ != kNpos) {
    const std::uint32_t slot = free_head_;
    free_head_ = slots_[slot].next_free;
    slots_[slot].next_free = kNpos;
    return slot;
  }
  DMX_CHECK_MSG(slots_.size() < kNpos, "envelope slot space exhausted");
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void Network::send(NodeId from, NodeId to, MessagePtr message) {
  send(ResourceId{0}, from, to, std::move(message));
}

void Network::send(ResourceId resource, NodeId from, NodeId to,
                   MessagePtr message) {
  send(resource, from, to, std::move(message), resource_epoch(resource));
}

void Network::send(ResourceId resource, NodeId from, NodeId to,
                   MessagePtr message, Epoch epoch) {
  DMX_CHECK_MSG(resource >= 0, "bad resource " << resource);
  DMX_CHECK_MSG(from >= 1 && from <= n_, "bad sender " << from);
  DMX_CHECK_MSG(to >= 1 && to <= n_, "bad recipient " << to);
  DMX_CHECK_MSG(from != to, "node " << from << " sending to itself");
  DMX_CHECK(message != nullptr);

  const MessageKind kind = message->kind_id();
  stats_.total_sent += 1;
  stats_.total_payload_bytes += message->payload_bytes();
  if (kind.id() >= stats_.sent_by_kind_id.size()) {
    stats_.sent_by_kind_id.resize(kind.id() + 1, 0);  // warms once per kind
  }
  stats_.sent_by_kind_id[kind.id()] += 1;
  if (static_cast<std::size_t>(resource) >= resource_stats_.size()) {
    resource_stats_.resize(static_cast<std::size_t>(resource) + 1);
  }
  MessageStats& rstats = resource_stats_[static_cast<std::size_t>(resource)];
  rstats.total_sent += 1;
  rstats.total_payload_bytes += message->payload_bytes();
  if (kind.id() >= rstats.sent_by_kind_id.size()) {
    rstats.sent_by_kind_id.resize(kind.id() + 1, 0);
  }
  rstats.sent_by_kind_id[kind.id()] += 1;

  // Crash/partition faults: a dead endpoint or severed link eats the
  // message at send time. Counted as sent (the sender did the work) and
  // dropped, like the injection knobs below.
  if (node_down_[static_cast<std::size_t>(from)] ||
      node_down_[static_cast<std::size_t>(to)] ||
      link_severed_[link_index(from, to)]) {
    stats_.total_dropped += 1;
    rstats.total_dropped += 1;
    return;
  }

  // Failure injection: the message is counted as sent but vanishes.
  if (drop_next_kind_.valid() && kind == drop_next_kind_) {
    drop_next_kind_ = MessageKind();
    stats_.total_dropped += 1;
    rstats.total_dropped += 1;
    return;
  }
  if (drop_probability_ > 0.0 && rng_.chance(drop_probability_)) {
    stats_.total_dropped += 1;
    rstats.total_dropped += 1;
    return;
  }

  const Tick now = sim_.now();
  const Tick latency = latency_->sample(from, to, rng_);
  DMX_CHECK(latency >= 1);

  // FIFO per channel: a message may not arrive before the previously sent
  // message on the same ordered channel.
  Tick deliver_at = now + latency;
  Tick& last = channel_last_delivery_[static_cast<std::size_t>(from) *
                                          static_cast<std::size_t>(n_ + 1) +
                                      static_cast<std::size_t>(to)];
  deliver_at = std::max(deliver_at, last);
  last = deliver_at;

  const std::uint32_t slot = acquire_slot();
  Envelope& env = slots_[slot].env;
  env.id = next_envelope_id_++;
  env.resource = resource;
  env.from = from;
  env.to = to;
  env.sent_at = now;
  env.deliver_at = deliver_at;
  env.epoch = epoch;
  env.message = std::move(message);
  slots_[slot].active = true;
  ++in_flight_count_;
  if (static_cast<std::size_t>(resource) >= in_flight_by_epoch_.size()) {
    in_flight_by_epoch_.resize(static_cast<std::size_t>(resource) + 1);
  }
  auto& epoch_layers = in_flight_by_epoch_[static_cast<std::size_t>(resource)];
  if (epoch >= epoch_layers.size()) {
    epoch_layers.resize(static_cast<std::size_t>(epoch) + 1);
  }
  auto& epoch_kinds = epoch_layers[static_cast<std::size_t>(epoch)];
  if (kind.id() >= epoch_kinds.size()) {
    epoch_kinds.resize(kind.id() + 1, 0);
  }
  ++epoch_kinds[kind.id()];
  if (observer_ != nullptr) {
    observer_->on_send(env);
  }
  sim_.schedule_at(deliver_at, [this, slot] { deliver(slot); });

  // Failure injection: re-send a clone of the message on the same channel.
  // Disarm before recursing (one duplicate, not an avalanche); the FIFO
  // clamp orders the duplicate behind the original.
  if (duplicate_next_kind_.valid() && kind == duplicate_next_kind_) {
    duplicate_next_kind_ = MessageKind();
    stats_.total_duplicated += 1;
    send(resource, from, to, slots_[slot].env.message->clone(), epoch);
  }
}

void Network::deliver(std::uint32_t slot_index) {
  EnvelopeSlot& slot = slots_[slot_index];
  DMX_CHECK(slot.active);
  // Detach the envelope and recycle the slot before invoking the handler:
  // the handler may send new messages, reusing this slot.
  Envelope env = std::move(slot.env);
  slot.active = false;
  slot.next_free = free_head_;
  free_head_ = slot_index;
  --in_flight_count_;
  --in_flight_by_epoch_[static_cast<std::size_t>(env.resource)]
                       [static_cast<std::size_t>(env.epoch)]
                       [env.message->kind_id().id()];
  // The destination crashed while this envelope was in transit: the wire
  // delivers into a dead socket.
  if (node_down_[static_cast<std::size_t>(env.to)]) {
    discard(std::move(env), DiscardReason::kDeadDestination);
    return;
  }
  // Epoch fence: an envelope from a pre-repair world never reaches a
  // handler. This is where a lost-then-found stale token dies.
  if (env.epoch != resource_epoch(env.resource)) {
    discard(std::move(env), DiscardReason::kStaleEpoch);
    return;
  }
  if (observer_ != nullptr) {
    observer_->on_deliver(env);
  }
  DMX_CHECK_MSG(handler_ != nullptr, "no delivery handler installed");
  handler_(env);
}

void Network::discard(Envelope env, DiscardReason reason) {
  MessageStats& rstats =
      resource_stats_[static_cast<std::size_t>(env.resource)];
  if (reason == DiscardReason::kStaleEpoch) {
    stats_.total_fenced += 1;
    rstats.total_fenced += 1;
  } else {
    stats_.total_dropped += 1;
    rstats.total_dropped += 1;
  }
  if (discard_handler_) discard_handler_(env, reason);
}

void Network::reset_stats() {
  stats_ = MessageStats{};
  for (MessageStats& rstats : resource_stats_) rstats = MessageStats{};
}

const MessageStats& Network::stats(ResourceId resource) const {
  static const MessageStats kEmpty;
  if (resource < 0 ||
      static_cast<std::size_t>(resource) >= resource_stats_.size()) {
    return kEmpty;
  }
  return resource_stats_[static_cast<std::size_t>(resource)];
}

void Network::set_drop_probability(double p) {
  DMX_CHECK(p >= 0.0 && p <= 1.0);
  drop_probability_ = p;
}

void Network::drop_next(std::string_view kind) {
  // Intern (not lookup): arming a drop for a kind that has not been sent
  // yet must still match the first send of that kind.
  drop_next_kind_ = MessageKind::of(kind);
}

void Network::duplicate_next(std::string_view kind) {
  duplicate_next_kind_ = MessageKind::of(kind);
}

void Network::set_node_down(NodeId v) {
  DMX_CHECK_MSG(v >= 1 && v <= n_, "bad node " << v);
  node_down_[static_cast<std::size_t>(v)] = 1;
}

void Network::set_node_up(NodeId v) {
  DMX_CHECK_MSG(v >= 1 && v <= n_, "bad node " << v);
  node_down_[static_cast<std::size_t>(v)] = 0;
}

bool Network::is_node_down(NodeId v) const {
  DMX_CHECK_MSG(v >= 1 && v <= n_, "bad node " << v);
  return node_down_[static_cast<std::size_t>(v)] != 0;
}

void Network::partition(NodeId a, NodeId b) {
  DMX_CHECK_MSG(a >= 1 && a <= n_, "bad node " << a);
  DMX_CHECK_MSG(b >= 1 && b <= n_, "bad node " << b);
  DMX_CHECK_MSG(a != b, "cannot partition node " << a << " from itself");
  link_severed_[link_index(a, b)] = 1;
  link_severed_[link_index(b, a)] = 1;
}

void Network::heal(NodeId a, NodeId b) {
  DMX_CHECK_MSG(a >= 1 && a <= n_, "bad node " << a);
  DMX_CHECK_MSG(b >= 1 && b <= n_, "bad node " << b);
  DMX_CHECK_MSG(a != b, "cannot heal node " << a << " with itself");
  link_severed_[link_index(a, b)] = 0;
  link_severed_[link_index(b, a)] = 0;
}

bool Network::is_partitioned(NodeId a, NodeId b) const {
  DMX_CHECK_MSG(a >= 1 && a <= n_, "bad node " << a);
  DMX_CHECK_MSG(b >= 1 && b <= n_, "bad node " << b);
  return link_severed_[link_index(a, b)] != 0;
}

void Network::set_resource_epoch(ResourceId resource, Epoch epoch) {
  DMX_CHECK_MSG(resource >= 0, "bad resource " << resource);
  if (static_cast<std::size_t>(resource) >= resource_epoch_.size()) {
    resource_epoch_.resize(static_cast<std::size_t>(resource) + 1, 0);
  }
  resource_epoch_[static_cast<std::size_t>(resource)] = epoch;
}

Epoch Network::resource_epoch(ResourceId resource) const {
  if (resource < 0 ||
      static_cast<std::size_t>(resource) >= resource_epoch_.size()) {
    return 0;
  }
  return resource_epoch_[static_cast<std::size_t>(resource)];
}

void Network::set_discard_handler(DiscardHandler handler) {
  discard_handler_ = std::move(handler);
}

std::size_t Network::in_flight_count(ResourceId resource, Epoch epoch,
                                     MessageKind kind) const {
  if (resource < 0 ||
      static_cast<std::size_t>(resource) >= in_flight_by_epoch_.size()) {
    return 0;
  }
  const auto& layers = in_flight_by_epoch_[static_cast<std::size_t>(resource)];
  if (static_cast<std::size_t>(epoch) >= layers.size()) return 0;
  const auto& kinds = layers[static_cast<std::size_t>(epoch)];
  if (!kind.valid() || kind.id() >= kinds.size()) return 0;
  return kinds[kind.id()];
}

void Network::for_each_in_flight(
    const std::function<void(const Envelope&)>& fn) const {
  for (const EnvelopeSlot& slot : slots_) {
    if (slot.active) fn(slot.env);
  }
}

}  // namespace dmx::net
