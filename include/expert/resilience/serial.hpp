#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "expert/core/campaign.hpp"

namespace expert::resilience::serial {

/// Text codec shared by the campaign journal and the procexec wire
/// protocol: every domain type serializes to the same byte-exact form in
/// both, which is what lets the differential in-process-vs-subprocess test
/// compare *journal files* for byte identity instead of fuzzy field
/// comparisons.
///
/// Numbers:
/// - A double travels as a C hexfloat, the bytes glibc's "%a" prints: its
///   sign, "0x", a leading 1 (normal values) or 0 (zero; subnormals, with
///   exponent -1022), the fraction's hex digits without trailing zeros, and
///   "p" with a signed decimal exponent. It round-trips exactly and
///   locale-free. +-infinity (the turnaround of a failed instance) is
///   "inf"/"-inf".
/// - The codec writes and reads those digits from the bits itself rather
///   than through std::to_chars(chars_format::hex), whose output for
///   subnormals differs across libstdc++ releases ("0x0.0000000000001p-1022"
///   vs "0x1p-1074"): the bytes must not depend on the library a binary
///   loads.
/// - NaN is never a valid field: encoders refuse it and decoders reject
///   it, both with util::ContractViolation.
/// - Unsigned integers are plain decimal through std::to_chars and
///   std::from_chars; fmt_hex16 is 16 lowercase hex digits.
///
/// Decoders are strict and single-pass: they read each field in place from
/// a cursor over the payload and throw util::ContractViolation on anything
/// no encoder writes — a sign or space before an integer, a hexfloat in any
/// but the canonical form above (decimal, exponent-less, uppercase, trailing
/// zeros), NaN, overflow, an enum value or task id out of range, a flag
/// other than 0/1, or a missing, extra or empty field.
std::string fmt_double(double value);
std::string fmt_u64(std::uint64_t value);
std::string fmt_hex16(std::uint64_t value);

/// Append forms of the formatters, for encoders that build one payload.
void append_double(std::string& out, double value);
void append_u64(std::string& out, std::uint64_t value);

/// Longest fmt_double and fmt_u64 outputs: "-0x1.fffffffffffffp+1023" and
/// 2^64 - 1.
inline constexpr std::size_t kMaxDoubleChars = 24;
inline constexpr std::size_t kMaxU64Chars = 20;

/// Cursor forms, the one formatter behind the append and fmt forms: write
/// the field at `out`, which must have room for kMaxDoubleChars or
/// kMaxU64Chars bytes, and return the end of what was written. Encoders of
/// record lists write each record into a stack buffer through these and
/// append it once.
char* write_double(char* out, double value);
char* write_u64(char* out, std::uint64_t value);

double parse_double(std::string_view text);
/// Parses in the given base; throws util::ContractViolation on trailing
/// garbage, a sign, overflow, or an empty field.
std::uint64_t parse_u64(std::string_view text, int base = 10);

/// Percent-escape ("%XX", uppercase hex) every byte a decoder splits on:
/// '%' itself, comma, and the whitespace bytes space, \t, \n, \v, \f and
/// \r — the journal and the wire tokenize on whitespace.
std::string escape(std::string_view text);
void append_escaped(std::string& out, std::string_view text);
std::string unescape(std::string_view text);

std::vector<std::string> split(const std::string& text, char sep);

/// A forward cursor over one payload for single-pass decoders. Every read
/// consumes exactly one field and throws util::ContractViolation when the
/// bytes at the cursor are not that field; it never reads past the view.
class Reader {
 public:
  explicit Reader(std::string_view text) noexcept : rest_(text) {}

  /// Consume `literal` if it comes next; report whether it did.
  bool consume(std::string_view literal) noexcept {
    if (!rest_.starts_with(literal)) return false;
    rest_.remove_prefix(literal.size());
    return true;
  }
  bool consume(char c) noexcept {
    if (rest_.empty() || rest_.front() != c) return false;
    rest_.remove_prefix(1);
    return true;
  }
  /// Consume `literal`, which must come next.
  void expect(std::string_view literal) {
    if (!consume(literal)) fail("unexpected field");
  }
  void expect(char c) {
    if (!consume(c)) fail("unexpected field");
  }
  /// A decimal integer no larger than `max`.
  std::uint64_t u64(
      std::uint64_t max = std::numeric_limits<std::uint64_t>::max());
  /// A fmt_double field.
  double real();
  /// A 0/1 flag.
  bool flag();
  /// The bytes before the next `sep` (all of them when there is none).
  std::string_view until(char sep) noexcept;
  /// How many unread bytes equal `c`.
  std::size_t count(char c) const noexcept;
  bool done() const noexcept { return rest_.empty(); }
  /// Throws unless every byte was read.
  void finish() const;

 private:
  [[noreturn]] void fail(const char* what) const;

  std::string_view rest_;
};

// ---- domain types ---------------------------------------------------------

std::string serialize_strategy(const strategies::StrategyConfig& s);
void append_strategy(std::string& out, const strategies::StrategyConfig& s);
strategies::StrategyConfig parse_strategy(std::string_view text);

std::string serialize_point(const core::StrategyPoint& p);
core::StrategyPoint parse_point(std::string_view text);

std::string serialize_quality(const core::CharacterizationQuality& q);
core::CharacterizationQuality parse_quality(std::string_view text);

std::string serialize_trace(const trace::ExecutionTrace& t);
void append_trace(std::string& out, const trace::ExecutionTrace& t);
trace::ExecutionTrace parse_trace(std::string_view text);

core::DegradationReason degradation_from_string(const std::string& name);
core::Campaign::BotOutcome outcome_from_string(const std::string& name);

}  // namespace expert::resilience::serial
