#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace expert::procexec {

/// Frame types of the worker wire protocol. The parent sends Request
/// frames; the worker answers with Heartbeat frames while computing and
/// exactly one Response or Error frame per request.
enum class FrameType : std::uint8_t {
  Request = 1,    ///< parent -> worker: run one (bot, strategy, stream)
  Response = 2,   ///< worker -> parent: the resulting ExecutionTrace
  Heartbeat = 3,  ///< worker -> parent: liveness while a request runs
  Error = 4,      ///< worker -> parent: handler threw; payload is the what()
};

const char* to_string(FrameType type) noexcept;

/// One decoded frame.
struct Frame {
  FrameType type = FrameType::Heartbeat;
  std::string payload;
};

/// Wire layout (all integers little-endian, independent of host order):
///
///   offset  size  field
///        0     4  magic "XPF1"
///        4     1  type (FrameType)
///        5     4  payload length
///        9     8  checksum = frame_checksum(type, payload)
///       17     n  payload bytes
///
/// The checksum covers type, length and payload, so a flipped type byte or
/// torn payload is detected, and the length field is validated by the
/// checksum over exactly `length` payload bytes.
inline constexpr std::size_t kFrameHeaderSize = 17;

/// The header's checksum field. Frames are never persisted, so only the two
/// ends of one channel, one build on one host, compute it; it may change
/// between builds and between hosts of different byte order.
std::uint64_t frame_checksum(FrameType type, std::string_view payload);

/// Upper bound on a frame payload. A length above this decodes as Corrupt
/// immediately (before waiting for the bytes), so a garbage length field
/// cannot make the supervisor buffer gigabytes. Generous enough for the
/// largest BoT trace the campaigns produce.
inline constexpr std::size_t kMaxFramePayload = 64u << 20;  // 64 MiB

/// Encode one frame, ready to write to the channel.
std::string encode_frame(FrameType type, std::string_view payload);

enum class DecodeStatus {
  NeedMore,  ///< buffer holds a valid prefix of a frame; read more bytes
  Ok,        ///< one frame decoded; `consumed` bytes may be dropped
  Corrupt,   ///< bad magic/type/length/checksum; the channel is unusable
};

struct DecodeResult {
  DecodeStatus status = DecodeStatus::NeedMore;
  Frame frame;              ///< valid when status == Ok
  std::size_t consumed = 0; ///< bytes of the buffer the frame occupied
  std::string error;        ///< diagnostic when status == Corrupt
};

/// Decode the first frame from `buffer`. Incremental: feed the unread tail
/// of the channel; NeedMore means wait for more bytes. Corruption is
/// terminal for a stream protocol — there is no way to resynchronize a
/// byte stream with a garbled length field, so the supervisor kills the
/// worker and restarts the slot.
DecodeResult decode_frame(std::string_view buffer);

}  // namespace expert::procexec
