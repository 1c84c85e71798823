#include "transport/codec.hpp"

#include <array>
#include <mutex>
#include <vector>

#include "baselines/carvalho_roucairol.hpp"
#include "baselines/central.hpp"
#include "baselines/lamport.hpp"
#include "baselines/maekawa.hpp"
#include "baselines/raymond.hpp"
#include "baselines/ricart_agrawala.hpp"
#include "baselines/singhal.hpp"
#include "baselines/suzuki_kasami.hpp"
#include "common/check.hpp"
#include "core/messages.hpp"
#include "service/repair_messages.hpp"

namespace dmx::transport {

namespace {

using baselines::CentralMessage;
using baselines::CrMessage;
using baselines::LamportMessage;
using baselines::MaekawaMessage;
using baselines::RaMessage;
using baselines::RaymondMessage;
using baselines::SinghalRequestMessage;
using baselines::SinghalState;
using baselines::SinghalToken;
using baselines::SinghalTokenMessage;
using baselines::SkRequestMessage;
using baselines::SkToken;
using baselines::SkTokenMessage;
using service::RepairAckMessage;
using service::RepairMessage;

/// Reads an enum discriminant and rejects values outside [0, limit).
std::uint8_t enum_field(net::WireReader& r, std::uint8_t limit,
                        const char* what) {
  const std::uint8_t value = r.u8();
  if (value >= limit) {
    throw net::WireError(std::string("bad ") + what + " discriminant " +
                         std::to_string(value));
  }
  return value;
}

SinghalState singhal_state(std::uint8_t raw) {
  switch (static_cast<SinghalState>(raw)) {
    case SinghalState::kRequesting:
    case SinghalState::kExecuting:
    case SinghalState::kHolding:
    case SinghalState::kNone:
      return static_cast<SinghalState>(raw);
  }
  throw net::WireError("bad Singhal state byte " + std::to_string(raw));
}

// --- Family decoders (field order mirrors each encode_binary) ---------------

net::MessagePtr decode_neilsen_request(net::WireReader& r) {
  const NodeId hop = r.i32();
  const NodeId origin = r.i32();
  return std::make_unique<core::RequestMessage>(hop, origin);
}

net::MessagePtr decode_neilsen_privilege(net::WireReader&) {
  return std::make_unique<core::PrivilegeMessage>();
}

net::MessagePtr decode_neilsen_initialize(net::WireReader&) {
  return std::make_unique<core::InitializeMessage>();
}

net::MessagePtr decode_raymond(net::WireReader& r) {
  const auto type =
      static_cast<RaymondMessage::Type>(enum_field(r, 2, "Raymond type"));
  return std::make_unique<RaymondMessage>(type);
}

net::MessagePtr decode_sk_request(net::WireReader& r) {
  return std::make_unique<SkRequestMessage>(r.i32());
}

net::MessagePtr decode_sk_token(net::WireReader& r) {
  SkToken token;
  const std::uint32_t ln_size = r.count(sizeof(std::int32_t));
  token.last_granted.reserve(ln_size);
  for (std::uint32_t i = 0; i < ln_size; ++i) {
    token.last_granted.push_back(r.i32());
  }
  const std::uint32_t queue_size = r.count(sizeof(std::int32_t));
  for (std::uint32_t i = 0; i < queue_size; ++i) {
    token.queue.push_back(r.i32());
  }
  return std::make_unique<SkTokenMessage>(std::move(token));
}

net::MessagePtr decode_singhal_request(net::WireReader& r) {
  const NodeId origin = r.i32();
  const int sequence = r.i32();
  return std::make_unique<SinghalRequestMessage>(origin, sequence);
}

net::MessagePtr decode_singhal_token(net::WireReader& r) {
  SinghalToken token;
  const std::uint32_t tsv_size = r.count(sizeof(std::uint8_t));
  token.tsv.reserve(tsv_size);
  for (std::uint32_t i = 0; i < tsv_size; ++i) {
    token.tsv.push_back(singhal_state(r.u8()));
  }
  const std::uint32_t tsn_size = r.count(sizeof(std::int32_t));
  token.tsn.reserve(tsn_size);
  for (std::uint32_t i = 0; i < tsn_size; ++i) {
    token.tsn.push_back(r.i32());
  }
  return std::make_unique<SinghalTokenMessage>(std::move(token));
}

net::MessagePtr decode_ra(net::WireReader& r) {
  const auto type = static_cast<RaMessage::Type>(enum_field(r, 2, "RA type"));
  return std::make_unique<RaMessage>(type, r.i32());
}

net::MessagePtr decode_cr(net::WireReader& r) {
  const auto type = static_cast<CrMessage::Type>(enum_field(r, 2, "CR type"));
  return std::make_unique<CrMessage>(type, r.i32());
}

net::MessagePtr decode_lamport(net::WireReader& r) {
  const auto type =
      static_cast<LamportMessage::Type>(enum_field(r, 3, "Lamport type"));
  return std::make_unique<LamportMessage>(type, r.i32());
}

net::MessagePtr decode_maekawa(net::WireReader& r) {
  const auto type =
      static_cast<MaekawaMessage::Type>(enum_field(r, 6, "Maekawa type"));
  return std::make_unique<MaekawaMessage>(type, r.i32());
}

net::MessagePtr decode_central(net::WireReader& r) {
  const auto type =
      static_cast<CentralMessage::Type>(enum_field(r, 3, "Central type"));
  return std::make_unique<CentralMessage>(type);
}

net::MessagePtr decode_repair(net::WireReader& r) {
  const Epoch epoch = r.u32();
  const NodeId winner = r.i32();
  const std::uint32_t count = r.count(sizeof(NodeId));
  std::vector<NodeId> members;
  members.reserve(count);
  NodeId previous = kNilNode;
  for (std::uint32_t i = 0; i < count; ++i) {
    const NodeId v = r.i32();
    // Strictly ascending positive ids — anything else is a corrupt frame,
    // not a membership the repair protocol could have produced.
    if (v <= previous) {
      throw net::WireError("repair membership not strictly ascending");
    }
    members.push_back(v);
    previous = v;
  }
  return std::make_unique<RepairMessage>(epoch, winner, std::move(members));
}

net::MessagePtr decode_repair_ack(net::WireReader& r) {
  return std::make_unique<RepairAckMessage>(r.u32());
}

struct Registry {
  struct Entry {
    net::MessageKind kind;
    Codec::Decoder decoder = nullptr;
  };

  /// wire id (registration index) -> entry.
  std::vector<Entry> by_wire_id;
  /// dense MessageKind id -> wire id + 1 (0 = unregistered). Sized to the
  /// intern cap so encode-side lookup is a single bounds-free probe.
  std::array<std::uint32_t, net::MessageKind::kMaxKinds> wire_id_by_kind{};

  void add(net::MessageKind kind, Codec::Decoder decoder) {
    DMX_CHECK_MSG(wire_id_by_kind[kind.id()] == 0,
                  "codec kind " << kind.name() << " registered twice");
    by_wire_id.push_back({kind, decoder});
    wire_id_by_kind[kind.id()] =
        static_cast<std::uint32_t>(by_wire_id.size());
  }

  Registry() {
    // Registration order IS the wire protocol: append only, never
    // reorder, so wire ids stay meaningful across build revisions that
    // add families.
    add(net::MessageKind::of("neilsen.request"), decode_neilsen_request);
    add(net::MessageKind::of("neilsen.privilege"), decode_neilsen_privilege);
    add(net::MessageKind::of("neilsen.initialize"),
        decode_neilsen_initialize);
    add(net::MessageKind::of("raymond.msg"), decode_raymond);
    add(net::MessageKind::of("sk.request"), decode_sk_request);
    add(net::MessageKind::of("sk.token"), decode_sk_token);
    add(net::MessageKind::of("singhal.request"), decode_singhal_request);
    add(net::MessageKind::of("singhal.token"), decode_singhal_token);
    add(net::MessageKind::of("ra.msg"), decode_ra);
    add(net::MessageKind::of("cr.msg"), decode_cr);
    add(net::MessageKind::of("lamport.msg"), decode_lamport);
    add(net::MessageKind::of("maekawa.msg"), decode_maekawa);
    add(net::MessageKind::of("central.msg"), decode_central);
    add(net::MessageKind::of("fault.repair"), decode_repair);
    add(net::MessageKind::of("fault.repair_ack"), decode_repair_ack);
  }
};

Registry& registry() {
  static Registry instance;
  return instance;
}

}  // namespace

void Codec::ensure_registered() { registry(); }

std::size_t Codec::family_count() { return registry().by_wire_id.size(); }

std::uint32_t Codec::wire_id_of(const net::Message& message) {
  const net::MessageKind kind = message.wire_kind();
  if (!kind.valid()) {
    throw net::WireError("message kind " + std::string(message.kind()) +
                         " has no wire codec (wire_kind not overridden)");
  }
  const std::uint32_t slot = registry().wire_id_by_kind[kind.id()];
  if (slot == 0) {
    throw net::WireError("codec kind " + std::string(kind.name()) +
                         " not registered");
  }
  return slot - 1;
}

net::MessageKind Codec::kind_of(std::uint32_t wire_id) {
  Registry& reg = registry();
  DMX_CHECK(wire_id < reg.by_wire_id.size());
  return reg.by_wire_id[wire_id].kind;
}

net::MessagePtr Codec::decode(std::uint32_t wire_id, net::WireReader& r) {
  Registry& reg = registry();
  if (wire_id >= reg.by_wire_id.size()) {
    throw net::WireError("unknown wire id " + std::to_string(wire_id));
  }
  net::MessagePtr message = reg.by_wire_id[wire_id].decoder(r);
  if (!r.done()) {
    throw net::WireError(std::to_string(r.remaining()) +
                         " trailing bytes after " +
                         std::string(reg.by_wire_id[wire_id].kind.name()) +
                         " payload");
  }
  return message;
}

void Codec::encode_frame(std::string& out, Epoch epoch, ResourceId resource,
                         NodeId from, NodeId to, const net::Message& message) {
  const std::uint32_t wire_id = wire_id_of(message);
  const std::size_t length_at = out.size();
  net::WireWriter w(out);
  w.u32(0);  // patched below
  w.u32(wire_id);
  w.u32(epoch);
  w.i32(resource);
  w.i32(from);
  w.i32(to);
  message.encode_binary(out);
  const std::size_t body = out.size() - length_at - 4;
  DMX_CHECK_MSG(body <= kMaxFrameBytes, "frame body of "
                                            << body << " bytes exceeds cap "
                                            << kMaxFrameBytes);
  out[length_at + 0] = static_cast<char>(body & 0xff);
  out[length_at + 1] = static_cast<char>((body >> 8) & 0xff);
  out[length_at + 2] = static_cast<char>((body >> 16) & 0xff);
  out[length_at + 3] = static_cast<char>((body >> 24) & 0xff);
}

void Codec::encode_control_frame(std::string& out, std::uint32_t wire_id,
                                 NodeId from) {
  DMX_CHECK(wire_id >= kControlWireIdBase);
  net::WireWriter w(out);
  w.u32(5 * 4);  // fixed header body, no payload
  w.u32(wire_id);
  w.u32(0);           // epoch
  w.i32(0);           // resource
  w.i32(from);
  w.i32(kNilNode);    // to: filled by routing, unused for control
}

FrameHeader Codec::decode_header(net::WireReader& r) {
  FrameHeader header;
  header.wire_id = r.u32();
  header.epoch = r.u32();
  header.resource = r.i32();
  header.from = r.i32();
  header.to = r.i32();
  return header;
}

}  // namespace dmx::transport
