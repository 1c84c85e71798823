// Binary wire codec tests: round-trip fidelity for every registered
// message family, encode-uniqueness over generated corpora (the aliasing
// audit pin — two behaviorally different messages must never share a
// binary encoding OR an encode() string), frame header round-trips, and
// rejection of malformed input, and a fixed-seed mutation fuzzer over
// whole frames.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "baselines/carvalho_roucairol.hpp"
#include "baselines/central.hpp"
#include "baselines/lamport.hpp"
#include "baselines/maekawa.hpp"
#include "baselines/raymond.hpp"
#include "baselines/ricart_agrawala.hpp"
#include "baselines/singhal.hpp"
#include "baselines/suzuki_kasami.hpp"
#include "common/rng.hpp"
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

// --- Mutation fuzzing --------------------------------------------------------
//
// Bytes off a socket are hostile until decoded. Every frame built from the
// corpus is mutated by one of five operators, then framed the way
// EventLoop::drain_frames frames a receive buffer. A mutated frame must be
// rejected (the receive path's length check, or net::WireError from
// decode_header/decode), or decode to a message whose encode_frame
// reproduces the frame byte for byte: a decoder may not accept two
// encodings of one message, crash, or over-allocate (asan-fast runs this).

enum class Mutation { kBitFlip, kTruncate, kLyingLength, kInflatedCount,
                      kSplice };
constexpr int kMutations = 5;

enum class Verdict { kIncomplete, kRejected, kCanonical, kNonCanonical };

constexpr std::size_t kHeaderEnd = 4 + 5 * 4;  // length prefix + header

std::uint32_t get_u32(const std::string& bytes, std::size_t at) {
  net::WireReader r(std::string_view(bytes).substr(at, 4));
  return r.u32();
}

void put_u32(std::string& bytes, std::size_t at, std::uint32_t value) {
  std::string le;
  net::WireWriter(le).u32(value);
  bytes.replace(at, 4, le);
}

/// Makes the length prefix tell the truth about `bytes`.
void fix_length(std::string& bytes) {
  put_u32(bytes, 0, static_cast<std::uint32_t>(bytes.size() - 4));
}

std::size_t pick(Rng& rng, std::size_t lo, std::size_t hi) {
  return static_cast<std::size_t>(rng.uniform_int(
      static_cast<std::int64_t>(lo), static_cast<std::int64_t>(hi)));
}

std::string mutate(Rng& rng, Mutation mutation,
                   const std::vector<std::string>& seeds,
                   const std::string& seed) {
  std::string out = seed;
  switch (mutation) {
    case Mutation::kBitFlip: {
      for (std::size_t flips = pick(rng, 1, 4); flips > 0; --flips) {
        out[pick(rng, 0, out.size() - 1)] ^=
            static_cast<char>(1u << pick(rng, 0, 7));
      }
      break;
    }
    case Mutation::kTruncate: {
      // The prefix is patched to the shorter body, so the frame is
      // complete and the decoders, not the reassembly, meet the cut.
      out.resize(pick(rng, 4, out.size() - 1));
      fix_length(out);
      break;
    }
    case Mutation::kLyingLength: {
      const std::uint32_t body = static_cast<std::uint32_t>(out.size() - 4);
      switch (pick(rng, 0, 2)) {
        case 0:  // short: the frame ends early, the rest is the next frame
          put_u32(out, 0, static_cast<std::uint32_t>(pick(rng, 0, body - 1)));
          break;
        case 1: {  // long, with enough garbage behind it to complete
          const std::size_t extra = pick(rng, 1, 16);
          for (std::size_t i = 0; i < extra; ++i) {
            out.push_back(static_cast<char>(pick(rng, 0, 255)));
          }
          put_u32(out, 0, body + static_cast<std::uint32_t>(extra));
          break;
        }
        default:
          put_u32(out, 0, static_cast<std::uint32_t>(rng.next()));
      }
      break;
    }
    case Mutation::kInflatedCount: {
      // Any payload word may be a vector count; raise it past what the
      // rest of the frame holds.
      if (out.size() < kHeaderEnd + 4) {  // no payload word: flip a bit
        out[pick(rng, 0, out.size() - 1)] ^= 1;
        break;
      }
      const std::size_t at = pick(rng, kHeaderEnd, out.size() - 4);
      const std::uint32_t was = get_u32(out, at);
      const std::array<std::uint32_t, 4> counts = {
          was + 1, was + static_cast<std::uint32_t>(pick(rng, 2, 64)),
          0x40000000u, 0xffffffffu};
      put_u32(out, at, counts[pick(rng, 0, counts.size() - 1)]);
      break;
    }
    case Mutation::kSplice: {
      const std::string& other = seeds[pick(rng, 0, seeds.size() - 1)];
      switch (pick(rng, 0, 2)) {
        case 0:  // another family's wire id over this payload
          put_u32(out, 4,
                  static_cast<std::uint32_t>(
                      pick(rng, 0, Codec::family_count() - 1)));
          break;
        case 1:  // this header over another frame's payload
          out = seed.substr(0, kHeaderEnd) + other.substr(kHeaderEnd);
          fix_length(out);
          break;
        default:  // a prefix of this frame over a suffix of another
          out = seed.substr(0, pick(rng, 4, seed.size())) +
                other.substr(pick(rng, 4, other.size()));
          fix_length(out);
      }
      break;
    }
  }
  return out;
}

/// Frames `bytes` as EventLoop::drain_frames does and decodes the first
/// frame. `why` receives the offending bytes' decoding on kNonCanonical.
Verdict check_frame(const std::string& bytes, std::string& why) {
  if (bytes.size() < 4) return Verdict::kIncomplete;
  const std::uint32_t length = get_u32(bytes, 0);
  if (length > kMaxFrameBytes || length < 5 * 4) return Verdict::kRejected;
  if (bytes.size() - 4 < length) return Verdict::kIncomplete;
  const std::string_view frame = std::string_view(bytes).substr(0, 4 + length);
  net::WireReader r(frame.substr(4));
  try {
    const FrameHeader header = Codec::decode_header(r);
    const net::MessagePtr message = Codec::decode(header.wire_id, r);
    std::string reencoded;
    Codec::encode_frame(reencoded, header.epoch, header.resource, header.from,
                        header.to, *message);
    if (reencoded == frame) return Verdict::kCanonical;
    why = message->describe();
    return Verdict::kNonCanonical;
  } catch (const net::WireError&) {
    return Verdict::kRejected;
  }
}

TEST(WireCodec, MutatedFramesAreRejectedOrReencodeCanonically) {
  std::vector<std::string> seeds;
  int i = 0;
  for (const net::MessagePtr& message : corpus()) {
    std::string frame;
    Codec::encode_frame(frame, /*epoch=*/static_cast<Epoch>(1 + i),
                        /*resource=*/i % 3, /*from=*/1 + i % 5,
                        /*to=*/2 + i % 4, *message);
    seeds.push_back(std::move(frame));
    ++i;
  }
  Rng rng(0x5eed'f00dULL);
  std::array<std::array<int, 4>, kMutations> verdicts{};
  int non_canonical = 0;
  for (int round = 0; round < 8000; ++round) {
    for (const std::string& seed : seeds) {
      const auto mutation = static_cast<Mutation>(round % kMutations);
      const std::string mutated = mutate(rng, mutation, seeds, seed);
      std::string why;
      const Verdict verdict = check_frame(mutated, why);
      ++verdicts[static_cast<std::size_t>(mutation)]
                [static_cast<std::size_t>(verdict)];
      if (verdict == Verdict::kNonCanonical && ++non_canonical <= 5) {
        ADD_FAILURE() << "mutation " << static_cast<int>(mutation)
                      << " of frame #" << (&seed - seeds.data())
                      << " decoded as " << why
                      << " but does not re-encode to its own bytes";
      }
    }
  }
  EXPECT_EQ(non_canonical, 0);
  // Every operator must reach the decoders' rejections, and the run as a
  // whole must also produce frames that decode: a fuzzer whose every
  // mutation dies at the length check tests nothing.
  int canonical = 0;
  for (int m = 0; m < kMutations; ++m) {
    const auto& counts = verdicts[static_cast<std::size_t>(m)];
    EXPECT_GT(counts[static_cast<std::size_t>(Verdict::kRejected)], 0)
        << "mutation " << m;
    canonical += counts[static_cast<std::size_t>(Verdict::kCanonical)];
  }
  EXPECT_GT(canonical, 0);
}

}  // namespace
}  // namespace dmx::transport
