// Codec differential against the frozen snprintf/strtod oracle
// (tests/oracle/serial_oracle.hpp). The encoders must produce the oracle's
// bytes and the decoders must round-trip bitwise: on over a million random
// double bit patterns (subnormals, signed zeros, infinities and the
// extremes included) and on real gridsim traces and requests of every
// reference architecture.

#include "expert/procexec/codec.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "codec_corpus.hpp"
#include "expert/resilience/serial.hpp"
#include "expert/util/rng.hpp"
#include "serial_oracle.hpp"

namespace expert::procexec {
namespace {

namespace ser = resilience::serial;
namespace oracle = serial_oracle;

std::uint64_t bits_of(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Compare one double against the oracle; returns false on any mismatch.
bool double_matches_oracle(double v) {
  const std::string text = ser::fmt_double(v);
  return text == oracle::fmt_double(v) &&
         bits_of(ser::parse_double(text)) == bits_of(v) &&
         bits_of(oracle::parse_double(text)) == bits_of(v);
}

TEST(CodecOracle, DoubleExtremesMatchPrintfAndRoundTrip) {
  using L = std::numeric_limits<double>;
  const double extremes[] = {
      0.0, 1.0, 0.1, 2066.0, L::infinity(), L::denorm_min(),
      std::nextafter(L::min(), 0.0),  // largest subnormal
      L::min(), L::max(), L::epsilon(), std::nextafter(1.0, 2.0),
      std::nextafter(1.0, 0.0), 0x1p-1074, 0x1.8p-1070, 0x1p+1023};
  for (const double e : extremes) {
    for (const double v : {e, -e}) {
      EXPECT_TRUE(double_matches_oracle(v))
          << oracle::fmt_double(v) << " vs " << ser::fmt_double(v);
    }
  }
}

TEST(CodecOracle, RandomDoubleBitPatternsMatchPrintfAndRoundTrip) {
  // Four shapes: raw bit patterns, subnormals (exponent cleared), values
  // near 1 (the turnaround and price range), and the top binades.
  util::Rng rng(0xC0DECULL);
  std::size_t checked = 0;
  std::size_t mismatches = 0;
  std::string first_mismatch;
  for (std::size_t i = 0; checked < 1'200'000; ++i) {
    std::uint64_t bits = rng.next();
    constexpr std::uint64_t kSignAndFraction = 0x800FFFFFFFFFFFFFULL;
    switch (i % 4) {
      case 1:
        bits &= kSignAndFraction;
        break;
      case 2:
        bits = (bits & kSignAndFraction) | (0x3F0ULL + i % 32) << 52;
        break;
      case 3:
        bits = (bits & kSignAndFraction) | 0x7FEULL << 52;
        break;
      default:
        break;
    }
    const double v = std::bit_cast<double>(bits);
    if (std::isnan(v)) continue;
    ++checked;
    if (!double_matches_oracle(v)) {
      if (mismatches++ == 0) first_mismatch = oracle::fmt_double(v);
    }
  }
  EXPECT_EQ(mismatches, 0u) << "first mismatch: " << first_mismatch;
}

TEST(CodecOracle, IntegersMatchToStringAndRoundTrip) {
  util::Rng rng(0x1D5ULL);
  std::vector<std::uint64_t> values = {
      0, 1, 9, 10, 4294967295ULL, 4294967296ULL,
      std::numeric_limits<std::uint64_t>::max()};
  for (int i = 0; i < 100000; ++i) values.push_back(rng.next() >> (i % 64));
  for (const std::uint64_t v : values) {
    const std::string text = ser::fmt_u64(v);
    ASSERT_EQ(text, oracle::fmt_u64(v));
    ASSERT_EQ(ser::parse_u64(text), v);
    ASSERT_EQ(oracle::parse_u64(text), v);
  }
}

void expect_same_trace(const trace::ExecutionTrace& a,
                       const trace::ExecutionTrace& b) {
  ASSERT_EQ(a.task_count(), b.task_count());
  ASSERT_EQ(bits_of(a.t_tail()), bits_of(b.t_tail()));
  ASSERT_EQ(bits_of(a.makespan()), bits_of(b.makespan()));
  ASSERT_EQ(a.truncated(), b.truncated());
  ASSERT_EQ(a.records().size(), b.records().size());
  for (std::size_t i = 0; i < a.records().size(); ++i) {
    const auto& x = a.records()[i];
    const auto& y = b.records()[i];
    ASSERT_EQ(x.task, y.task) << "record " << i;
    ASSERT_EQ(x.pool, y.pool) << "record " << i;
    ASSERT_EQ(bits_of(x.send_time), bits_of(y.send_time)) << "record " << i;
    ASSERT_EQ(bits_of(x.turnaround), bits_of(y.turnaround)) << "record " << i;
    ASSERT_EQ(x.outcome, y.outcome) << "record " << i;
    ASSERT_EQ(bits_of(x.cost_cents), bits_of(y.cost_cents)) << "record " << i;
    ASSERT_EQ(x.tail_phase, y.tail_phase) << "record " << i;
  }
}

TEST(CodecOracle, RealTracesEncodeToOracleBytesAndRoundTrip) {
  const auto bot = codec_corpus::corpus_bot(200);
  const auto traces = codec_corpus::corpus_traces(bot, 40, 3);
  std::set<trace::InstanceOutcome> outcomes;
  bool saw_truncated = false;
  for (const auto& t : traces) {
    for (const auto& r : t.records()) outcomes.insert(r.outcome);
    saw_truncated = saw_truncated || t.truncated();
    const std::string text = ser::serialize_trace(t);
    ASSERT_EQ(text, oracle::serialize_trace(t));
    expect_same_trace(ser::parse_trace(text), t);
    expect_same_trace(oracle::parse_trace(text), t);
    const std::string response = encode_response(t);
    ASSERT_EQ(response, oracle::encode_response(t));
    expect_same_trace(decode_response(response), t);
  }
  // The corpus reaches every outcome and both truncation states.
  EXPECT_EQ(outcomes.size(), 6u);
  EXPECT_TRUE(saw_truncated);
}

TEST(CodecOracle, RequestsEncodeToOracleBytesAndRoundTrip) {
  const auto bot = codec_corpus::corpus_bot(820);
  const workload::Bot named("bot with spaces, commas% and\nnewlines",
                            bot.tasks());
  for (const auto& strategy : codec_corpus::corpus_strategies()) {
    for (const workload::Bot* b : {&bot, &named}) {
      for (const std::uint64_t stream :
           {std::uint64_t{0}, std::uint64_t{7},
            std::numeric_limits<std::uint64_t>::max()}) {
        const std::string payload = encode_request(*b, strategy, stream);
        ASSERT_EQ(payload, oracle::encode_request(*b, strategy, stream));
        for (const Request& decoded :
             {decode_request(payload), oracle::decode_request(payload)}) {
          EXPECT_EQ(decoded.stream, stream);
          EXPECT_EQ(decoded.bot.name(), b->name());
          ASSERT_EQ(decoded.bot.size(), b->size());
          for (std::size_t i = 0; i < b->size(); ++i) {
            ASSERT_EQ(decoded.bot.tasks()[i].id, b->tasks()[i].id);
            ASSERT_EQ(bits_of(decoded.bot.tasks()[i].cpu_seconds),
                      bits_of(b->tasks()[i].cpu_seconds));
          }
          EXPECT_EQ(ser::serialize_strategy(decoded.strategy),
                    ser::serialize_strategy(strategy));
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Strict request decoding.

const std::string kRequestHead =
    "req v1 stream=1 strategy=s,0,0,1,0x1p+0,0x1p+1,0x1p-2,0x0p+0 bot=b "
    "tasks=";

TEST(CodecStrict, RequestRejectsTaskIdsPastTheTaskIdRange) {
  EXPECT_NO_THROW(decode_request(kRequestHead + "0:0x1p+0;1:0x1p+0"));
  // 2^32 + 1 would truncate to task 1, the next dense id.
  EXPECT_THROW(decode_request(kRequestHead + "0:0x1p+0;4294967297:0x1p+0"),
               util::ContractViolation);
}

TEST(CodecStrict, RequestRejectsLooseSeparators) {
  EXPECT_THROW(decode_request(" " + kRequestHead + "0:0x1p+0"),
               util::ContractViolation);
  EXPECT_THROW(decode_request(kRequestHead + "0:0x1p+0 "),
               util::ContractViolation);
  EXPECT_THROW(decode_request(kRequestHead + "0:0x1p+0;"),
               util::ContractViolation);
  EXPECT_THROW(decode_request(kRequestHead), util::ContractViolation);
}

TEST(CodecStrict, NamesHoldingEveryByteRoundTrip) {
  const std::vector<workload::Task> tasks = {{0, 1.5}, {1, 2066.0}};
  for (int byte = 1; byte < 256; ++byte) {
    const std::string name{'a', static_cast<char>(byte), 'b'};
    strategies::StrategyConfig strategy = codec_corpus::corpus_strategy();
    strategy.name = name;
    const workload::Bot bot(name, tasks);
    const Request decoded = decode_request(encode_request(bot, strategy, 9));
    EXPECT_EQ(decoded.bot.name(), name) << "byte " << byte;
    EXPECT_EQ(decoded.strategy.name, name) << "byte " << byte;
    EXPECT_EQ(decoded.bot.size(), 2u);
  }
}

}  // namespace
}  // namespace expert::procexec
