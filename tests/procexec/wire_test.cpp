// Frame protocol tests: round-trip, incremental (NeedMore) decoding at
// every truncation point, corruption detection for each header field and
// the payload, oversized-length rejection, and a deterministic fuzz pass
// asserting no single-byte mutation of a valid frame ever decodes Ok.

#include "expert/procexec/wire.hpp"

#include <gtest/gtest.h>

#include <string>

#include "expert/procexec/codec.hpp"
#include "expert/util/assert.hpp"
#include "expert/util/rng.hpp"
#include "expert/workload/presets.hpp"

namespace expert::procexec {
namespace {

TEST(Wire, RoundTripsEveryFrameType) {
  for (const FrameType type :
       {FrameType::Request, FrameType::Response, FrameType::Heartbeat,
        FrameType::Error}) {
    const std::string payload = "payload for " + std::string(to_string(type));
    const std::string encoded = encode_frame(type, payload);
    ASSERT_EQ(encoded.size(), kFrameHeaderSize + payload.size());
    const DecodeResult decoded = decode_frame(encoded);
    ASSERT_EQ(decoded.status, DecodeStatus::Ok) << to_string(type);
    EXPECT_EQ(decoded.frame.type, type);
    EXPECT_EQ(decoded.frame.payload, payload);
    EXPECT_EQ(decoded.consumed, encoded.size());
  }
}

TEST(Wire, EmptyPayloadRoundTrips) {
  const std::string encoded = encode_frame(FrameType::Heartbeat, "");
  const DecodeResult decoded = decode_frame(encoded);
  ASSERT_EQ(decoded.status, DecodeStatus::Ok);
  EXPECT_TRUE(decoded.frame.payload.empty());
  EXPECT_EQ(decoded.consumed, kFrameHeaderSize);
}

TEST(Wire, EveryTruncationOfAValidFrameNeedsMore) {
  const std::string encoded = encode_frame(FrameType::Response, "0123456789");
  for (std::size_t len = 0; len < encoded.size(); ++len) {
    const DecodeResult decoded = decode_frame(
        std::string_view(encoded).substr(0, len));
    EXPECT_EQ(decoded.status, DecodeStatus::NeedMore)
        << "prefix of " << len << " bytes";
  }
}

TEST(Wire, BadMagicIsCorruptImmediately) {
  // A wrong leading byte must not wait for a full header: there is no
  // resynchronizing a garbled byte stream.
  EXPECT_EQ(decode_frame("Y").status, DecodeStatus::Corrupt);
  std::string encoded = encode_frame(FrameType::Request, "x");
  encoded[2] = 'Q';
  EXPECT_EQ(decode_frame(encoded).status, DecodeStatus::Corrupt);
}

TEST(Wire, UnknownTypeIsCorrupt) {
  std::string encoded = encode_frame(FrameType::Request, "x");
  encoded[4] = static_cast<char>(0x7F);
  const DecodeResult decoded = decode_frame(encoded);
  EXPECT_EQ(decoded.status, DecodeStatus::Corrupt);
  EXPECT_NE(decoded.error.find("type"), std::string::npos);
}

TEST(Wire, OversizedLengthIsCorruptBeforeThePayloadArrives) {
  std::string encoded = encode_frame(FrameType::Request, "x");
  // Rewrite the little-endian length field to kMaxFramePayload + 1.
  const std::uint32_t huge = static_cast<std::uint32_t>(kMaxFramePayload) + 1;
  for (std::size_t i = 0; i < 4; ++i) {
    encoded[5 + i] = static_cast<char>((huge >> (8 * i)) & 0xFF);
  }
  // Only the 9-byte prefix: the decoder must reject without buffering 64MiB.
  const DecodeResult decoded =
      decode_frame(std::string_view(encoded).substr(0, 9));
  EXPECT_EQ(decoded.status, DecodeStatus::Corrupt);
  EXPECT_NE(decoded.error.find("cap"), std::string::npos);
}

TEST(Wire, FlippedPayloadByteFailsTheChecksum) {
  std::string encoded = encode_frame(FrameType::Response, "sensitive data");
  encoded[kFrameHeaderSize + 3] ^= 0x01;
  const DecodeResult decoded = decode_frame(encoded);
  EXPECT_EQ(decoded.status, DecodeStatus::Corrupt);
  EXPECT_NE(decoded.error.find("checksum"), std::string::npos);
}

TEST(Wire, FlippedTypeByteFailsTheChecksum) {
  // Heartbeat -> Error is a *known* type, so only the checksum (which
  // covers the type byte) can catch the flip.
  std::string encoded = encode_frame(FrameType::Heartbeat, "hb");
  encoded[4] = static_cast<char>(FrameType::Error);
  EXPECT_EQ(decode_frame(encoded).status, DecodeStatus::Corrupt);
}

TEST(Wire, DecodesBackToBackFramesIncrementally) {
  const std::string a = encode_frame(FrameType::Heartbeat, "");
  const std::string b = encode_frame(FrameType::Response, "result");
  std::string buffer = a + b;

  const DecodeResult first = decode_frame(buffer);
  ASSERT_EQ(first.status, DecodeStatus::Ok);
  EXPECT_EQ(first.frame.type, FrameType::Heartbeat);
  buffer.erase(0, first.consumed);

  const DecodeResult second = decode_frame(buffer);
  ASSERT_EQ(second.status, DecodeStatus::Ok);
  EXPECT_EQ(second.frame.type, FrameType::Response);
  EXPECT_EQ(second.frame.payload, "result");
}

TEST(Wire, NoSingleByteMutationDecodesOk) {
  // Deterministic fuzz: flip one random bit/byte at a time, 500 rounds.
  // Every mutation must decode Corrupt or NeedMore — never Ok — because
  // each header byte is structurally validated and type+payload are
  // checksummed (a length mutation shifts the checksummed window).
  // The long payload spans whole 32-byte checksum blocks and a tail.
  std::string long_payload;
  for (int i = 0; i < 150; ++i) {
    long_payload.push_back(static_cast<char>('!' + (i * 7) % 90));
  }
  for (const std::string& payload :
       {std::string("the quick brown fox"), long_payload}) {
    const std::string pristine = encode_frame(FrameType::Request, payload);
    util::Rng rng(0xF22);
    for (int round = 0; round < 500; ++round) {
      std::string mutated = pristine;
      const std::size_t at = rng.below(mutated.size());
      const auto flip = static_cast<char>(1 + rng.below(255));
      mutated[at] = static_cast<char>(mutated[at] ^ flip);
      const DecodeResult decoded = decode_frame(mutated);
      EXPECT_NE(decoded.status, DecodeStatus::Ok)
          << "mutation at byte " << at << " of a " << payload.size()
          << "-byte payload survived decoding";
    }
  }
}

TEST(Wire, TruncatedRandomPrefixesNeverDecodeOk) {
  const std::string pristine = encode_frame(FrameType::Error, "diagnostic");
  util::Rng rng(0xF23);
  for (int round = 0; round < 200; ++round) {
    const std::size_t len = rng.below(pristine.size());  // strictly shorter
    const DecodeResult decoded =
        decode_frame(std::string_view(pristine).substr(0, len));
    EXPECT_EQ(decoded.status, DecodeStatus::NeedMore) << "prefix " << len;
  }
}

TEST(Codec, RequestRoundTripsBotStrategyAndStream) {
  const auto bot = workload::make_synthetic_bot("bot with spaces, and commas",
                                                17, 1000.0, 400.0, 2500.0, 5);
  strategies::StrategyConfig strategy;
  strategy.name = "N=2 T=500 D=2000 Mr=0.1";
  const std::string payload = encode_request(bot, strategy, 42);
  const Request decoded = decode_request(payload);
  EXPECT_EQ(decoded.stream, 42u);
  EXPECT_EQ(decoded.bot.name(), bot.name());
  ASSERT_EQ(decoded.bot.size(), bot.size());
  for (std::size_t i = 0; i < bot.size(); ++i) {
    EXPECT_EQ(decoded.bot.tasks()[i].id, bot.tasks()[i].id);
    // Hexfloat serialization: bit-exact, not approximate.
    EXPECT_EQ(decoded.bot.tasks()[i].cpu_seconds, bot.tasks()[i].cpu_seconds);
  }
  EXPECT_EQ(decoded.strategy.name, strategy.name);
}

TEST(Codec, MalformedRequestPayloadThrows) {
  EXPECT_THROW(decode_request("not a request"), util::ContractViolation);
  EXPECT_THROW(decode_request("req v2 stream=1 strategy= bot= tasks="),
               util::ContractViolation);
  EXPECT_THROW(decode_request(""), util::ContractViolation);
}

TEST(Codec, MalformedResponsePayloadThrows) {
  EXPECT_THROW(decode_response("junk"), util::ContractViolation);
  EXPECT_THROW(decode_response("trace not,numbers"), util::ContractViolation);
}

}  // namespace
}  // namespace expert::procexec
