#include "expert/procexec/wire.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "expert/util/hash.hpp"

namespace expert::procexec {

namespace {

constexpr char kMagic[4] = {'X', 'P', 'F', '1'};
/// Domain separator for the frame checksum.
constexpr std::uint64_t kFrameSalt = 0xF4A3EC0DEULL;

bool known_type(std::uint8_t value) {
  return value >= static_cast<std::uint8_t>(FrameType::Request) &&
         value <= static_cast<std::uint8_t>(FrameType::Error);
}

/// The 8 bytes at `at` as one word in host byte order (one load): both
/// ends of a channel run on one host.
std::uint64_t load_word(std::string_view in, std::size_t at) {
  std::uint64_t word = 0;
  std::memcpy(&word, in.data() + at, sizeof word);
  return word;
}

/// One lane step (xxHash64's round). For a fixed lane it is a bijection
/// of the word, so a changed word always changes the lane.
std::uint64_t lane_round(std::uint64_t lane, std::uint64_t word) {
  lane += word * 0xC2B2AE3D27D4EB4FULL;
  return std::rotl(lane, 31) * 0x9E3779B185EBCA87ULL;
}

void put_u32(std::string& out, std::uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((value >> (8 * i)) & 0xFF));
  }
}

void put_u64(std::string& out, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((value >> (8 * i)) & 0xFF));
  }
}

std::uint32_t get_u32(std::string_view in, std::size_t at) {
  std::uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    value |= static_cast<std::uint32_t>(
                 static_cast<unsigned char>(in[at + static_cast<std::size_t>(i)]))
             << (8 * i);
  }
  return value;
}

std::uint64_t get_u64(std::string_view in, std::size_t at) {
  std::uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<std::uint64_t>(
                 static_cast<unsigned char>(in[at + static_cast<std::size_t>(i)]))
             << (8 * i);
  }
  return value;
}

}  // namespace

/// Each 32-byte block of the payload feeds four independent lanes, one
/// word each, so the lanes' multiply chains overlap instead of queueing
/// behind one another. The type, length, lanes and the tail past the last
/// block then fold into one HashState.
std::uint64_t frame_checksum(FrameType type, std::string_view payload) {
  std::uint64_t lanes[4] = {kFrameSalt, kFrameSalt + 1, kFrameSalt + 2,
                            kFrameSalt + 3};
  std::size_t at = 0;
  for (; payload.size() - at >= 32; at += 32) {
    for (std::size_t k = 0; k < 4; ++k) {
      lanes[k] = lane_round(lanes[k], load_word(payload, at + 8 * k));
    }
  }
  util::HashState folded(kFrameSalt);
  folded.mix(static_cast<std::uint64_t>(type))
      .mix(static_cast<std::uint64_t>(payload.size()));
  for (const std::uint64_t lane : lanes) folded.mix(lane);
  return folded.mix(payload.substr(at)).digest();
}

const char* to_string(FrameType type) noexcept {
  switch (type) {
    case FrameType::Request: return "request";
    case FrameType::Response: return "response";
    case FrameType::Heartbeat: return "heartbeat";
    case FrameType::Error: return "error";
  }
  return "?";
}

std::string encode_frame(FrameType type, std::string_view payload) {
  std::string out;
  out.reserve(kFrameHeaderSize + payload.size());
  out.append(kMagic, sizeof kMagic);
  out.push_back(static_cast<char>(type));
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  put_u64(out, frame_checksum(type, payload));
  out.append(payload);
  return out;
}

DecodeResult decode_frame(std::string_view buffer) {
  DecodeResult result;

  // Validate the prefix eagerly: bad bytes are Corrupt the moment they
  // arrive, even before a full header is buffered.
  const std::size_t magic_have = std::min(buffer.size(), sizeof kMagic);
  for (std::size_t i = 0; i < magic_have; ++i) {
    if (buffer[i] != kMagic[i]) {
      result.status = DecodeStatus::Corrupt;
      result.error = "bad frame magic";
      return result;
    }
  }
  if (buffer.size() >= 5 &&
      !known_type(static_cast<std::uint8_t>(buffer[4]))) {
    result.status = DecodeStatus::Corrupt;
    result.error = "unknown frame type " +
                   std::to_string(static_cast<unsigned>(
                       static_cast<unsigned char>(buffer[4])));
    return result;
  }
  if (buffer.size() >= 9) {
    const std::uint32_t length = get_u32(buffer, 5);
    if (length > kMaxFramePayload) {
      result.status = DecodeStatus::Corrupt;
      result.error = "frame payload of " + std::to_string(length) +
                     " bytes exceeds the " +
                     std::to_string(kMaxFramePayload) + "-byte cap";
      return result;
    }
  }
  if (buffer.size() < kFrameHeaderSize) return result;  // NeedMore

  const auto type = static_cast<FrameType>(buffer[4]);
  const std::uint32_t length = get_u32(buffer, 5);
  const std::uint64_t checksum = get_u64(buffer, 9);
  if (buffer.size() < kFrameHeaderSize + length) return result;  // NeedMore

  const std::string_view payload = buffer.substr(kFrameHeaderSize, length);
  if (checksum != frame_checksum(type, payload)) {
    result.status = DecodeStatus::Corrupt;
    result.error = "frame checksum mismatch";
    return result;
  }

  result.status = DecodeStatus::Ok;
  result.frame.type = type;
  result.frame.payload.assign(payload);
  result.consumed = kFrameHeaderSize + length;
  return result;
}

}  // namespace expert::procexec
