// Strict field decoding in the shared text codec: every value no encoder
// writes is rejected with util::ContractViolation instead of being cast,
// truncated or read leniently — out-of-range enums and task ids, a sign or
// space before an integer, decimal doubles, and NaN in either direction.

#include "expert/resilience/serial.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "expert/util/assert.hpp"

namespace expert::resilience::serial {
namespace {

using util::ContractViolation;

/// A one-record trace payload whose record fields are `record`.
std::string trace_with_record(const std::string& record) {
  return "2,0x1p+0,0x1p+1,0,1;" + record;
}

TEST(SerialStrict, ValidTracePayloadParses) {
  const auto t = parse_trace(trace_with_record("1:1:0x0p+0:inf:5:0x0p+0:1"));
  ASSERT_EQ(t.records().size(), 1u);
  EXPECT_EQ(t.records()[0].task, 1u);
  EXPECT_EQ(t.records()[0].pool, trace::PoolKind::Reliable);
  EXPECT_EQ(t.records()[0].outcome, trace::InstanceOutcome::OutOfBid);
  EXPECT_TRUE(t.records()[0].tail_phase);
}

TEST(SerialStrict, TraceRejectsOutOfRangePoolAndOutcome) {
  EXPECT_THROW(parse_trace(trace_with_record("0:7:0x0p+0:inf:1:0x0p+0:0")),
               ContractViolation);
  EXPECT_THROW(parse_trace(trace_with_record("0:0:0x0p+0:inf:200:0x0p+0:0")),
               ContractViolation);
  EXPECT_THROW(parse_trace(trace_with_record("0:0:0x0p+0:inf:6:0x0p+0:0")),
               ContractViolation);
}

TEST(SerialStrict, TraceRejectsTaskIdsPastTheTaskIdRange) {
  // 2^32 would truncate to task 0, a valid id of this two-task trace.
  EXPECT_THROW(
      parse_trace(trace_with_record("4294967296:0:0x0p+0:inf:1:0x0p+0:0")),
      ContractViolation);
}

TEST(SerialStrict, TraceRejectsFlagsOtherThanZeroOrOne) {
  EXPECT_THROW(parse_trace(trace_with_record("0:0:0x0p+0:inf:1:0x0p+0:2")),
               ContractViolation);
  EXPECT_THROW(parse_trace("2,0x1p+0,0x1p+1,3,0"), ContractViolation);
}

TEST(SerialStrict, StrategyRejectsOutOfRangeEnumsAndN) {
  const std::string tail = ",0x1p+0,0x1p+1,0x1p-2,0x0p+0";
  EXPECT_NO_THROW(parse_strategy("s,2,3,4294967295" + tail));
  EXPECT_THROW(parse_strategy("s,9,0,1" + tail), ContractViolation);
  EXPECT_THROW(parse_strategy("s,0,9,1" + tail), ContractViolation);
  // 2^32 + 1 would truncate to N = 1.
  EXPECT_THROW(parse_strategy("s,0,0,4294967297" + tail), ContractViolation);
}

TEST(SerialStrict, IntegersRejectSignsAndSpaces) {
  EXPECT_EQ(parse_u64("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_THROW(parse_u64("-1"), ContractViolation);
  EXPECT_THROW(parse_u64("+1"), ContractViolation);
  EXPECT_THROW(parse_u64(" 1"), ContractViolation);
  EXPECT_THROW(parse_u64("1 "), ContractViolation);
  EXPECT_THROW(parse_u64("18446744073709551616"), ContractViolation);
  EXPECT_THROW(parse_u64(""), ContractViolation);
}

TEST(SerialStrict, DoublesAcceptOnlyTheHexfloatsEncodersWrite) {
  EXPECT_EQ(parse_double("0x1.8p+1"), 3.0);
  EXPECT_EQ(parse_double("-inf"), -std::numeric_limits<double>::infinity());
  for (const char* text :
       {" 0x1p+0", "0x1p+0 ", "1.5", "1e3", "0x1.8", "0x1.8p", "+0x1p+0",
        "0X1p+0", "0x1.8P+1", "0x1.80p+1", "0x1p+01", "0x1p-0", "0x2p+0",
        "0x1.Ap+0", "0x0p-1022", "0x0.8p+0", "0x1p+1024", "0x1p-1023",
        "0x1.00000000000001p+0", "infinity", "--0x1p+0", ""}) {
    EXPECT_THROW(parse_double(text), ContractViolation) << "'" << text << "'";
  }
}

TEST(SerialStrict, EveryFractionByteOutsideLowercaseHexIsRejected) {
  // A canonical hexfloat with all 13 fraction digits; substitute every byte
  // at every fraction position. Exactly [0-9a-f] is accepted, and no '0'
  // in the last position (a trailing zero).
  const std::string canonical = "0x1.123456789abcdp+3";
  const std::size_t first = canonical.find('.') + 1;
  constexpr std::size_t kDigits = 13;
  for (std::size_t pos = 0; pos < kDigits; ++pos) {
    for (int byte = 0; byte < 256; ++byte) {
      std::string text = canonical;
      text[first + pos] = static_cast<char>(byte);
      const bool hex =
          (byte >= '0' && byte <= '9') || (byte >= 'a' && byte <= 'f');
      if (hex && !(pos == kDigits - 1 && byte == '0')) {
        EXPECT_EQ(fmt_double(parse_double(text)), text)
            << "byte " << byte << " at " << pos;
      } else {
        EXPECT_THROW(parse_double(text), ContractViolation)
            << "byte " << byte << " at " << pos;
      }
    }
  }
}

TEST(SerialStrict, NaNIsRefusedWhenEncodingAndRejectedWhenDecoding) {
  EXPECT_THROW(fmt_double(std::numeric_limits<double>::quiet_NaN()),
               ContractViolation);
  EXPECT_THROW(fmt_double(-std::numeric_limits<double>::quiet_NaN()),
               ContractViolation);
  for (const char* text : {"nan", "-nan", "NAN", "nan(0x1)", "0xnan"}) {
    EXPECT_THROW(parse_double(text), ContractViolation) << text;
  }
  std::vector<trace::InstanceRecord> records(1);
  records[0].cost_cents = std::nan("");
  const trace::ExecutionTrace t(1, std::move(records), 0.0, 1.0);
  EXPECT_THROW(serialize_trace(t), ContractViolation);
}

TEST(SerialStrict, EscapeCoversEveryByteADecoderSplitsOn) {
  EXPECT_EQ(escape("a%b,c d\te\nf\vg\fh\ri"),
            "a%25b%2Cc%20d%09e%0Af%0Bg%0Ch%0Di");
  for (int byte = 1; byte < 256; ++byte) {
    const std::string text{'<', static_cast<char>(byte), '>'};
    const std::string escaped = escape(text);
    EXPECT_EQ(escaped.find_first_of(", \t\n\v\f\r"), std::string::npos)
        << "byte " << byte;
    EXPECT_EQ(unescape(escaped), text) << "byte " << byte;
  }
}

}  // namespace
}  // namespace expert::resilience::serial
