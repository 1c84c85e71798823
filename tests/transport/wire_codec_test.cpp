// Binary wire codec tests: round-trip fidelity for every registered
// message family, encode-uniqueness over generated corpora (the aliasing
// audit pin — two behaviorally different messages must never share a
// binary encoding OR an encode() string), frame header round-trips, and
// rejection of malformed input.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "baselines/carvalho_roucairol.hpp"
#include "baselines/central.hpp"
#include "baselines/lamport.hpp"
#include "baselines/maekawa.hpp"
#include "baselines/raymond.hpp"
#include "baselines/ricart_agrawala.hpp"
#include "baselines/singhal.hpp"
#include "baselines/suzuki_kasami.hpp"
#include "core/messages.hpp"
#include "net/wire_format.hpp"
#include "transport/codec.hpp"
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

/// A corpus of distinct messages per family: every pair of corpus entries
/// is behaviorally different, so encodings must differ pairwise.
std::vector<net::MessagePtr> corpus() {
  std::vector<net::MessagePtr> out;
  // Neilsen.
  out.push_back(std::make_unique<core::RequestMessage>(1, 1));
  out.push_back(std::make_unique<core::RequestMessage>(1, 2));
  out.push_back(std::make_unique<core::RequestMessage>(3, 2));
  out.push_back(std::make_unique<core::PrivilegeMessage>());
  out.push_back(std::make_unique<core::InitializeMessage>());
  // Raymond.
  out.push_back(
      std::make_unique<RaymondMessage>(RaymondMessage::Type::kRequest));
  out.push_back(
      std::make_unique<RaymondMessage>(RaymondMessage::Type::kPrivilege));
  // Suzuki–Kasami.
  out.push_back(std::make_unique<SkRequestMessage>(1));
  out.push_back(std::make_unique<SkRequestMessage>(7));
  {
    SkToken token;
    token.last_granted = {0, 1, 0, 2};
    token.queue = {3};
    out.push_back(std::make_unique<SkTokenMessage>(token));
    token.queue = {3, 2};
    out.push_back(std::make_unique<SkTokenMessage>(token));
    token.queue.clear();
    out.push_back(std::make_unique<SkTokenMessage>(token));
    token.last_granted = {0, 1, 1, 2};
    out.push_back(std::make_unique<SkTokenMessage>(token));
  }
  // Singhal.
  out.push_back(std::make_unique<SinghalRequestMessage>(2, 5));
  out.push_back(std::make_unique<SinghalRequestMessage>(2, 6));
  out.push_back(std::make_unique<SinghalRequestMessage>(3, 5));
  {
    SinghalToken token;
    token.tsv = {SinghalState::kNone, SinghalState::kHolding,
                 SinghalState::kRequesting};
    token.tsn = {0, 1, 2};
    out.push_back(std::make_unique<SinghalTokenMessage>(token));
    token.tsv[2] = SinghalState::kNone;
    out.push_back(std::make_unique<SinghalTokenMessage>(token));
    token.tsn[2] = 3;
    out.push_back(std::make_unique<SinghalTokenMessage>(token));
  }
  // Ricart–Agrawala.
  out.push_back(std::make_unique<RaMessage>(RaMessage::Type::kRequest, 4));
  out.push_back(std::make_unique<RaMessage>(RaMessage::Type::kRequest, 5));
  out.push_back(std::make_unique<RaMessage>(RaMessage::Type::kReply, 4));
  // Carvalho–Roucairol.
  out.push_back(std::make_unique<CrMessage>(CrMessage::Type::kRequest, 9));
  out.push_back(std::make_unique<CrMessage>(CrMessage::Type::kReply, 9));
  // Lamport.
  out.push_back(
      std::make_unique<LamportMessage>(LamportMessage::Type::kRequest, 2));
  out.push_back(
      std::make_unique<LamportMessage>(LamportMessage::Type::kAck, 2));
  out.push_back(
      std::make_unique<LamportMessage>(LamportMessage::Type::kRelease, 2));
  out.push_back(
      std::make_unique<LamportMessage>(LamportMessage::Type::kRequest, 3));
  // Maekawa — every type carries its sequence.
  out.push_back(
      std::make_unique<MaekawaMessage>(MaekawaMessage::Type::kRequest, 1));
  out.push_back(
      std::make_unique<MaekawaMessage>(MaekawaMessage::Type::kLocked, 1));
  out.push_back(
      std::make_unique<MaekawaMessage>(MaekawaMessage::Type::kRelease, 1));
  out.push_back(
      std::make_unique<MaekawaMessage>(MaekawaMessage::Type::kFail, 1));
  out.push_back(
      std::make_unique<MaekawaMessage>(MaekawaMessage::Type::kInquire, 1));
  out.push_back(
      std::make_unique<MaekawaMessage>(MaekawaMessage::Type::kRelinquish, 1));
  out.push_back(
      std::make_unique<MaekawaMessage>(MaekawaMessage::Type::kRequest, 2));
  // Central.
  out.push_back(
      std::make_unique<CentralMessage>(CentralMessage::Type::kRequest));
  out.push_back(
      std::make_unique<CentralMessage>(CentralMessage::Type::kGrant));
  out.push_back(
      std::make_unique<CentralMessage>(CentralMessage::Type::kRelease));
  // Membership repair.
  out.push_back(std::make_unique<RepairMessage>(
      7, 2, std::vector<NodeId>{2, 3, 5}));
  out.push_back(std::make_unique<RepairMessage>(
      8, 2, std::vector<NodeId>{2, 3, 5}));
  out.push_back(std::make_unique<RepairMessage>(
      7, 3, std::vector<NodeId>{3, 5}));
  out.push_back(std::make_unique<RepairMessage>(7, 2,
                                                std::vector<NodeId>{2}));
  out.push_back(std::make_unique<RepairAckMessage>(7));
  out.push_back(std::make_unique<RepairAckMessage>(8));
  return out;
}

TEST(WireCodec, RegistersEveryFamily) {
  Codec::ensure_registered();
  EXPECT_EQ(Codec::family_count(), 15u);
  // Wire ids are dense and self-consistent: each registered kind resolves
  // back to its own wire id through a message of that family.
  for (const net::MessagePtr& message : corpus()) {
    const std::uint32_t wire_id = Codec::wire_id_of(*message);
    EXPECT_LT(wire_id, Codec::family_count());
    EXPECT_EQ(Codec::kind_of(wire_id), message->wire_kind())
        << message->describe();
  }
}

TEST(WireCodec, RoundTripsEveryCorpusMessage) {
  for (const net::MessagePtr& message : corpus()) {
    std::string payload;
    message->encode_binary(payload);
    net::WireReader reader(payload);
    const net::MessagePtr decoded =
        Codec::decode(Codec::wire_id_of(*message), reader);
    ASSERT_NE(decoded, nullptr);
    // decode() reconstructs a behaviorally identical message: same
    // canonical encode() (the explorer's state identity), same kind, same
    // payload accounting, same wire re-encoding.
    EXPECT_EQ(decoded->encode(), message->encode());
    EXPECT_EQ(decoded->kind(), message->kind());
    EXPECT_EQ(decoded->payload_bytes(), message->payload_bytes());
    EXPECT_EQ(decoded->wire_kind(), message->wire_kind());
    std::string reencoded;
    decoded->encode_binary(reencoded);
    EXPECT_EQ(reencoded, payload) << message->describe();
  }
}

TEST(WireCodec, EncodingsAreUniqueAcrossTheCorpus) {
  // The aliasing audit, pinned: across every behaviorally-distinct corpus
  // message, (wire id, binary payload) pairs are unique, and so are the
  // canonical encode() strings — a family whose describe()/encode()
  // dropped a payload field (the bug class this PR audited for) would
  // collide here.
  const auto messages = corpus();
  std::set<std::string> binary;
  std::set<std::string> canonical;
  for (const net::MessagePtr& message : messages) {
    std::string key = std::to_string(Codec::wire_id_of(*message)) + "|";
    message->encode_binary(key);
    EXPECT_TRUE(binary.insert(key).second)
        << "binary encoding aliased: " << message->describe();
    const std::string canon =
        std::string(message->wire_kind().name()) + "|" + message->encode();
    EXPECT_TRUE(canonical.insert(canon).second)
        << "encode() aliased: " << message->describe();
  }
}

TEST(WireCodec, FrameHeaderRoundTrips) {
  std::string frame;
  const core::RequestMessage message(3, 7);
  Codec::encode_frame(frame, /*epoch=*/5, /*resource=*/9, /*from=*/2,
                      /*to=*/4, message);
  // Length prefix covers exactly the rest of the frame.
  net::WireReader length_reader(frame);
  const std::uint32_t length = length_reader.u32();
  ASSERT_EQ(frame.size(), 4u + length);

  net::WireReader reader(std::string_view(frame).substr(4));
  const FrameHeader header = Codec::decode_header(reader);
  EXPECT_EQ(header.wire_id, Codec::wire_id_of(message));
  EXPECT_EQ(header.epoch, 5u);
  EXPECT_EQ(header.resource, 9);
  EXPECT_EQ(header.from, 2);
  EXPECT_EQ(header.to, 4);
  const net::MessagePtr decoded = Codec::decode(header.wire_id, reader);
  EXPECT_EQ(decoded->encode(), message.encode());
}

TEST(WireCodec, RejectsMalformedInput) {
  // Unknown wire id.
  {
    net::WireReader reader(std::string_view(""));
    EXPECT_THROW(Codec::decode(9999, reader), net::WireError);
  }
  // Truncated payload.
  {
    const std::string half = "\x01\x00";  // REQUEST needs 8 bytes
    net::WireReader reader(half);
    const core::RequestMessage probe(1, 2);
    EXPECT_THROW(Codec::decode(Codec::wire_id_of(probe), reader),
                 net::WireError);
  }
  // Trailing bytes after a complete payload.
  {
    const core::RequestMessage message(1, 2);
    std::string payload;
    message.encode_binary(payload);
    payload.push_back('\0');
    net::WireReader reader(payload);
    EXPECT_THROW(Codec::decode(Codec::wire_id_of(message), reader),
                 net::WireError);
  }
  // Out-of-range enum discriminant.
  {
    const RaMessage probe(RaMessage::Type::kRequest, 1);
    std::string payload;
    payload.push_back('\x07');  // RA has types 0 and 1
    payload.append(4, '\0');
    net::WireReader reader(payload);
    EXPECT_THROW(Codec::decode(Codec::wire_id_of(probe), reader),
                 net::WireError);
  }
  // A vector count larger than the remaining buffer could hold (the
  // anti-allocation guard for corrupt token frames).
  {
    SkToken token;
    token.last_granted = {0, 1};
    const SkTokenMessage probe(token);
    std::string payload;
    net::WireWriter writer(payload);
    writer.u32(0x40000000u);  // one-billion-entry LN array, 4 bytes follow
    writer.i32(1);
    net::WireReader reader(payload);
    EXPECT_THROW(Codec::decode(Codec::wire_id_of(probe), reader),
                 net::WireError);
  }
  // A repair membership that is not strictly ascending cannot have come
  // from the repair protocol — corrupt frame, refused.
  {
    const RepairMessage probe(1, 2, {2, 3});
    std::string payload;
    net::WireWriter writer(payload);
    writer.u32(1);   // epoch
    writer.i32(2);   // winner
    writer.u32(3);   // member count
    writer.i32(2);
    writer.i32(5);
    writer.i32(3);   // out of order
    net::WireReader reader(payload);
    EXPECT_THROW(Codec::decode(Codec::wire_id_of(probe), reader),
                 net::WireError);
  }
}

TEST(WireCodec, MessageWithoutCodecIsRefused) {
  class BareMessage final : public net::Message {
   public:
    BareMessage() : net::Message(net::MessageKind::of("BARE_TEST")) {}
    std::size_t payload_bytes() const override { return 0; }
    net::MessagePtr clone() const override {
      return std::make_unique<BareMessage>();
    }
  };
  const BareMessage bare;
  EXPECT_FALSE(bare.wire_kind().valid());
  EXPECT_THROW(Codec::wire_id_of(bare), net::WireError);
}

}  // namespace
}  // namespace dmx::transport
