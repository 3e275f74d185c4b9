// Mutation property test for the codec decoders (label chaos-soak). An
// in-tree deterministic mutator damages real trace and request payloads:
// every single-byte substitution at every position, every truncation, and
// seeded multi-byte damage (substitutions, insertions, deletions, spliced
// chunks). Each mutant must either throw util::ContractViolation or decode
// to a value that re-encodes and re-decodes to itself bitwise, and every
// truncation of a trace payload must throw. Trace payloads are decoded
// from exact-size heap buffers, so under ASan/UBSan (CI's chaos-soak job)
// a read past the payload fails too, as does an allocation sized by a
// corrupted record count.
//
// EXPERT_CHAOS_SEED shifts the run streams that produce the payloads and
// the random damage, like the other soak tests:
//   EXPERT_CHAOS_SEED=<n> ctest --test-dir build -L chaos-soak

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "codec_corpus.hpp"
#include "expert/procexec/codec.hpp"
#include "expert/resilience/serial.hpp"
#include "expert/util/assert.hpp"
#include "expert/util/rng.hpp"

namespace expert::procexec {
namespace {

namespace ser = resilience::serial;

std::uint64_t env_seed() {
  const char* v = std::getenv("EXPERT_CHAOS_SEED");
  return v == nullptr ? 0 : std::strtoull(v, nullptr, 10);
}

std::uint64_t bits_of(double v) { return std::bit_cast<std::uint64_t>(v); }

/// A heap copy of exactly `text`'s bytes: no terminator and no spare
/// capacity, so ASan flags any read past the end.
class ExactBuffer {
 public:
  explicit ExactBuffer(std::string_view text)
      : data_(std::make_unique<char[]>(text.size())), size_(text.size()) {
    if (size_ > 0) std::memcpy(data_.get(), text.data(), size_);
  }
  std::string_view view() const { return {data_.get(), size_}; }

 private:
  std::unique_ptr<char[]> data_;
  std::size_t size_;
};

bool same_trace(const trace::ExecutionTrace& a,
                const trace::ExecutionTrace& b) {
  if (a.task_count() != b.task_count() ||
      bits_of(a.t_tail()) != bits_of(b.t_tail()) ||
      bits_of(a.makespan()) != bits_of(b.makespan()) ||
      a.truncated() != b.truncated() ||
      a.records().size() != b.records().size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.records().size(); ++i) {
    const auto& x = a.records()[i];
    const auto& y = b.records()[i];
    if (x.task != y.task || x.pool != y.pool ||
        bits_of(x.send_time) != bits_of(y.send_time) ||
        bits_of(x.turnaround) != bits_of(y.turnaround) ||
        x.outcome != y.outcome ||
        bits_of(x.cost_cents) != bits_of(y.cost_cents) ||
        x.tail_phase != y.tail_phase) {
      return false;
    }
  }
  return true;
}

bool same_request(const Request& a, const Request& b) {
  const auto& s = a.strategy;
  const auto& t = b.strategy;
  if (a.stream != b.stream || a.bot.name() != b.bot.name() ||
      a.bot.size() != b.bot.size() || s.name != t.name ||
      s.throughput != t.throughput || s.tail_mode != t.tail_mode ||
      s.ntdmr.n != t.ntdmr.n ||
      bits_of(s.ntdmr.timeout_t) != bits_of(t.ntdmr.timeout_t) ||
      bits_of(s.ntdmr.deadline_d) != bits_of(t.ntdmr.deadline_d) ||
      bits_of(s.ntdmr.mr) != bits_of(t.ntdmr.mr) ||
      bits_of(s.budget_cents) != bits_of(t.budget_cents)) {
    return false;
  }
  for (std::size_t i = 0; i < a.bot.size(); ++i) {
    if (a.bot.tasks()[i].id != b.bot.tasks()[i].id ||
        bits_of(a.bot.tasks()[i].cpu_seconds) !=
            bits_of(b.bot.tasks()[i].cpu_seconds)) {
      return false;
    }
  }
  return true;
}

enum class Verdict { Rejected, RoundTrips, Broken };

/// Decode a trace payload (no "trace " prefix) and, when it decodes,
/// re-encode and re-decode it.
Verdict check_trace(std::string_view payload) {
  try {
    const ExactBuffer buffer(payload);
    const trace::ExecutionTrace decoded = ser::parse_trace(buffer.view());
    const std::string again = ser::serialize_trace(decoded);
    const trace::ExecutionTrace redecoded = ser::parse_trace(again);
    return same_trace(decoded, redecoded) &&
                   ser::serialize_trace(redecoded) == again
               ? Verdict::RoundTrips
               : Verdict::Broken;
  } catch (const util::ContractViolation&) {
    return Verdict::Rejected;
  } catch (...) {
    return Verdict::Broken;
  }
}

Verdict check_request(const std::string& payload) {
  try {
    const Request decoded = decode_request(payload);
    const std::string again =
        encode_request(decoded.bot, decoded.strategy, decoded.stream);
    const Request redecoded = decode_request(again);
    return same_request(decoded, redecoded) &&
                   encode_request(redecoded.bot, redecoded.strategy,
                                  redecoded.stream) == again
               ? Verdict::RoundTrips
               : Verdict::Broken;
  } catch (const util::ContractViolation&) {
    return Verdict::Rejected;
  } catch (...) {
    return Verdict::Broken;
  }
}

/// Tallies verdicts and keeps the first broken mutant for the report.
struct Tally {
  std::size_t mutants = 0;
  std::size_t rejected = 0;
  std::size_t broken = 0;
  std::string first_broken;

  void add(Verdict v, const std::string& mutant) {
    ++mutants;
    if (v == Verdict::Rejected) ++rejected;
    if (v == Verdict::Broken && broken++ == 0) first_broken = mutant;
  }
};

/// The in-tree mutator: deterministic in its seed.
class Mutator {
 public:
  explicit Mutator(std::uint64_t seed) : rng_(seed) {}

  /// One to four random edits: substitute, insert or delete a byte, or
  /// splice in a copy of another chunk of the payload.
  std::string damage(const std::string& pristine) {
    std::string out = pristine;
    const std::uint64_t edits = 1 + rng_.below(4);
    for (std::uint64_t e = 0; e < edits && !out.empty(); ++e) {
      const std::size_t at = rng_.below(out.size());
      switch (rng_.below(4)) {
        case 0:
          out[at] = random_byte();
          break;
        case 1:
          out.insert(out.begin() + static_cast<std::ptrdiff_t>(at),
                     random_byte());
          break;
        case 2:
          out.erase(at, 1);
          break;
        default: {
          const std::size_t from = rng_.below(pristine.size());
          const std::size_t len = 1 + rng_.below(24);
          out.insert(at, pristine.substr(from, len));
          break;
        }
      }
    }
    return out;
  }

 private:
  /// Grammar bytes half the time, so damage lands on separators, digits
  /// and hexfloat syntax rather than only on unlikely bytes.
  char random_byte() {
    static constexpr char kGrammar[] = ",;:= .px-+01239afinu%";
    if (rng_.below(2) == 0) {
      return kGrammar[rng_.below(sizeof kGrammar - 1)];
    }
    return static_cast<char>(rng_.below(256));
  }

  util::Rng rng_;
};

template <typename Check>
Tally every_single_byte_substitution(const std::string& pristine,
                                     Check check) {
  Tally tally;
  std::string mutant = pristine;
  for (std::size_t i = 0; i < pristine.size(); ++i) {
    for (int byte = 0; byte < 256; ++byte) {
      if (static_cast<char>(byte) == pristine[i]) continue;
      mutant[i] = static_cast<char>(byte);
      tally.add(check(mutant), mutant);
    }
    mutant[i] = pristine[i];
  }
  return tally;
}

struct Payloads {
  std::vector<std::string> traces;    ///< serialized, no "trace " prefix
  std::vector<std::string> requests;  ///< one per corpus strategy
};

const Payloads& payloads() {
  static const Payloads p = [] {
    Payloads out;
    const auto bot = codec_corpus::corpus_bot(10);
    for (const auto& t : codec_corpus::corpus_traces(
             bot, 8, /*streams=*/1, /*first_stream=*/1 + env_seed())) {
      out.traces.push_back(ser::serialize_trace(t));
    }
    const workload::Bot named("mutant bot, 1", bot.tasks());
    for (const auto& strategy : codec_corpus::corpus_strategies()) {
      out.requests.push_back(encode_request(named, strategy, 3 + env_seed()));
    }
    return out;
  }();
  return p;
}

TEST(CodecMutation, EveryTruncationOfATracePayloadThrows) {
  for (const std::string& pristine : payloads().traces) {
    ASSERT_EQ(check_trace(pristine), Verdict::RoundTrips);
    for (std::size_t len = 0; len < pristine.size(); ++len) {
      ASSERT_EQ(check_trace(std::string_view(pristine).substr(0, len)),
                Verdict::Rejected)
          << "prefix of " << len << " bytes decoded: "
          << pristine.substr(0, len);
    }
  }
}

TEST(CodecMutation, EveryTruncationOfARequestPayloadIsSafe) {
  for (const std::string& pristine : payloads().requests) {
    ASSERT_EQ(check_request(pristine), Verdict::RoundTrips);
    Tally tally;
    for (std::size_t len = 0; len < pristine.size(); ++len) {
      const std::string prefix = pristine.substr(0, len);
      tally.add(check_request(prefix), prefix);
    }
    EXPECT_EQ(tally.broken, 0u) << "first: " << tally.first_broken;
  }
}

TEST(CodecMutation, EverySingleByteSubstitutionOfATraceIsSafe) {
  // Two of the corpus traces per seed keep the exhaustive sweep short.
  const auto& traces = payloads().traces;
  for (std::size_t k = 0; k < 2; ++k) {
    const std::string& pristine = traces[(env_seed() * 7 + k * 11) %
                                         traces.size()];
    const Tally tally = every_single_byte_substitution(
        pristine, [](const std::string& m) { return check_trace(m); });
    EXPECT_EQ(tally.broken, 0u) << "first: " << tally.first_broken;
    EXPECT_GT(tally.rejected, tally.mutants / 2);
  }
}

TEST(CodecMutation, EverySingleByteSubstitutionOfARequestIsSafe) {
  const auto& requests = payloads().requests;
  const std::string& pristine = requests[env_seed() % requests.size()];
  const Tally tally = every_single_byte_substitution(
      pristine, [](const std::string& m) { return check_request(m); });
  EXPECT_EQ(tally.broken, 0u) << "first: " << tally.first_broken;
  EXPECT_GT(tally.rejected, tally.mutants / 2);
}

TEST(CodecMutation, RandomMultiByteDamageIsSafe) {
  Mutator mutator(0x4D07A7EULL + env_seed());
  Tally traces;
  for (const std::string& pristine : payloads().traces) {
    for (int i = 0; i < 2000; ++i) {
      const std::string mutant = mutator.damage(pristine);
      traces.add(check_trace(mutant), mutant);
    }
  }
  EXPECT_EQ(traces.broken, 0u) << "first: " << traces.first_broken;
  Tally requests;
  for (const std::string& pristine : payloads().requests) {
    for (int i = 0; i < 2000; ++i) {
      const std::string mutant = mutator.damage(pristine);
      requests.add(check_request(mutant), mutant);
    }
  }
  EXPECT_EQ(requests.broken, 0u) << "first: " << requests.first_broken;
}

TEST(CodecMutation, ACorruptRecordCountIsRejectedBeforeAnyAllocation) {
  // The count is checked against the records present before the record
  // vector is sized; a huge count must not reach the allocator.
  const std::string& pristine = payloads().traces.front();
  const std::size_t semicolon = pristine.find(';');
  const std::size_t comma = pristine.rfind(',', semicolon);
  ASSERT_NE(semicolon, std::string::npos);
  for (const char* count : {"0", "4294967296", "1152921504606846975",
                            "18446744073709551615"}) {
    const std::string mutant = pristine.substr(0, comma + 1) + count +
                               pristine.substr(semicolon);
    EXPECT_EQ(check_trace(mutant), Verdict::Rejected) << count;
  }
}

}  // namespace
}  // namespace expert::procexec
