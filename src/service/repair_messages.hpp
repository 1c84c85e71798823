// Membership repair control messages (the protocol lives in
// service/node_runtime.hpp).
//
// REPAIR carries the winner's fresh epoch and the compact survivor
// membership, as original node ids in ascending order. REPAIR-ACK carries
// the highest epoch the acker has adopted: equal to the announced epoch
// for a plain ack, above it when the acker is fenced past a lagging
// winner, which must then announce again.
//
// Both families ride the ordinary frame path (they are addressed,
// per-resource, epoch-stamped), but a runtime handles them directly
// instead of posting them to the protocol strand: they are ABOUT the
// world the strand runs, not traffic within it. Transports deliver them
// off the sender's thread (the TCP loop thread, a pool task in process),
// because the sender holds its repair mutex while it sends.
#pragma once

#include <string>
#include <vector>

#include "common/types.hpp"
#include "net/message.hpp"
#include "net/wire_format.hpp"

namespace dmx::service {

class RepairMessage final : public net::Message {
 public:
  /// `epoch` is the target epoch being announced, `winner` the announcing
  /// regenerator, `members` the survivor set as original node ids in
  /// strictly ascending order (the compact ranks are implied by position).
  RepairMessage(Epoch epoch, NodeId winner, std::vector<NodeId> members)
      : net::Message(interned_kind()), epoch_(epoch), winner_(winner),
        members_(std::move(members)) {}

  Epoch epoch() const { return epoch_; }
  NodeId winner() const { return winner_; }
  const std::vector<NodeId>& members() const { return members_; }

  std::size_t payload_bytes() const override {
    return 2 * sizeof(std::uint32_t) +
           (members_.size() + 1) * sizeof(NodeId);
  }
  std::string describe() const override {
    std::string out = "REPAIR(e=" + std::to_string(epoch_) +
                      ",w=" + std::to_string(winner_) + ",[";
    for (std::size_t i = 0; i < members_.size(); ++i) {
      if (i > 0) out += ",";
      out += std::to_string(members_[i]);
    }
    return out + "])";
  }
  net::MessagePtr clone() const override {
    return std::make_unique<RepairMessage>(*this);
  }
  net::MessageKind wire_kind() const override {
    static const net::MessageKind kind = net::MessageKind::of("fault.repair");
    return kind;
  }
  void encode_binary(std::string& out) const override {
    net::WireWriter w(out);
    w.u32(epoch_);
    w.i32(winner_);
    w.u32(static_cast<std::uint32_t>(members_.size()));
    for (const NodeId v : members_) w.i32(v);
  }

  static net::MessageKind interned_kind() {
    static const net::MessageKind kind = net::MessageKind::of("REPAIR");
    return kind;
  }

 private:
  Epoch epoch_;
  NodeId winner_;
  std::vector<NodeId> members_;
};

class RepairAckMessage final : public net::Message {
 public:
  /// `epoch` is the highest target epoch the acker has adopted — equal to
  /// the announced epoch for a plain ack, above it when the acker is
  /// fenced past the announcing (lagging) winner.
  explicit RepairAckMessage(Epoch epoch)
      : net::Message(interned_kind()), epoch_(epoch) {}

  Epoch epoch() const { return epoch_; }

  std::size_t payload_bytes() const override { return sizeof(std::uint32_t); }
  std::string describe() const override {
    return "REPAIR-ACK(e=" + std::to_string(epoch_) + ")";
  }
  net::MessagePtr clone() const override {
    return std::make_unique<RepairAckMessage>(*this);
  }
  net::MessageKind wire_kind() const override {
    static const net::MessageKind kind =
        net::MessageKind::of("fault.repair_ack");
    return kind;
  }
  void encode_binary(std::string& out) const override {
    net::WireWriter w(out);
    w.u32(epoch_);
  }

  static net::MessageKind interned_kind() {
    static const net::MessageKind kind = net::MessageKind::of("REPAIR-ACK");
    return kind;
  }

 private:
  Epoch epoch_;
};

/// Whether `message` is a repair control frame rather than protocol
/// traffic.
inline bool is_repair_control(const net::Message& message) {
  return message.kind_id() == RepairMessage::interned_kind() ||
         message.kind_id() == RepairAckMessage::interned_kind();
}

}  // namespace dmx::service
