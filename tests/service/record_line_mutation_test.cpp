// Mutation property test for the record line both persisted files share
// (label chaos-soak): every single-byte substitution at every position of a
// service manifest and of a campaign journal.
//
// - Manifest (one tenant, every field off its default): each substitution
//   and each truncation must make read_manifest throw, save the one cut the
//   format cannot see: a cut right after the header line leaves a complete
//   manifest with no tenants.
// - Journal (a header and three records): a substitution before the final
//   line must throw, and one in the final line must recover the first two
//   records with torn_tail set. Two bytes sit on the boundary: the second
//   record's '\n' merges the last two lines into one torn final line (one
//   record recovered), and a '\n' written into the final line splits it so
//   that a corrupt line is no longer the last (throws). No mutant recovers
//   all three records.
//
// Each mutant is written to a fresh file, because recovery truncates a torn
// tail. EXPERT_CHAOS_SEED shifts the persisted values, like the other soak
// tests:
//   EXPERT_CHAOS_SEED=<n> ctest --test-dir build -L chaos-soak

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <string>

#include "expert/resilience/journal.hpp"
#include "expert/service/manifest.hpp"
#include "expert/util/assert.hpp"
#include "service_test_util.hpp"

namespace expert::service {
namespace {

using core::Campaign;
using testutil::fresh_dir;
using testutil::read_file;

constexpr std::uint64_t kSchedulingDigest = 0x5C4ED0ULL;

std::uint64_t env_seed() {
  const char* v = std::getenv("EXPERT_CHAOS_SEED");
  return v == nullptr ? 0 : std::strtoull(v, nullptr, 10);
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

/// One tenant whose every persisted field differs from its default.
Manifest one_tenant_manifest() {
  ManifestEntry entry;
  TenantSpec& s = entry.spec;
  s.id = "t-1.x";
  s.bots = {{40, 3 + env_seed()}, {25, 9}};
  s.mean_cpu = 1200.5;
  s.min_cpu = 500.25;
  s.max_cpu = 3000.75;
  s.utility = "budget:12.5";
  s.sampling_density = 3;
  s.history_window = 4;
  s.repetitions = 5;
  s.max_backend_retries = 1;
  s.seed = 77 + env_seed();
  s.quotas.max_eval_units = 900;
  s.quotas.max_wall_seconds = 2.5;
  s.quotas.max_journal_bytes = 4096;
  s.drift = true;
  entry.phase = TenantPhase::Terminated;
  entry.termination = TerminationCause::EvalUnitBudget;
  entry.bots_done = 1;
  Manifest m;
  m.entries.push_back(entry);
  return m;
}

TEST(RecordLineMutation, EveryManifestSubstitutionAndTruncationIsRefused) {
  const std::string path = fresh_dir("manifest") + ".manifest";
  write_manifest(path, one_tenant_manifest(), kSchedulingDigest);
  const std::string original = read_file(path);
  ASSERT_EQ(read_manifest(path, kSchedulingDigest).entries.size(), 1u);

  std::size_t accepted = 0;
  for (std::size_t pos = 0; pos < original.size(); ++pos) {
    for (int byte = 0; byte < 256; ++byte) {
      if (static_cast<char>(byte) == original[pos]) continue;
      std::string mutant = original;
      mutant[pos] = static_cast<char>(byte);
      write_file(path, mutant);
      try {
        (void)read_manifest(path, kSchedulingDigest);
        ++accepted;
        ADD_FAILURE() << "accepted byte " << byte << " at " << pos;
      } catch (const util::ContractViolation&) {
      }
    }
  }
  EXPECT_EQ(accepted, 0u);

  const std::size_t header_end = original.find('\n') + 1;
  for (std::size_t size = 0; size < original.size(); ++size) {
    write_file(path, original.substr(0, size));
    if (size == header_end) {
      EXPECT_TRUE(read_manifest(path, kSchedulingDigest).entries.empty());
      continue;
    }
    EXPECT_THROW(read_manifest(path, kSchedulingDigest),
                 util::ContractViolation)
        << "truncated to " << size << " bytes";
  }
}

/// Byte offset where line `index` (0-based) of `bytes` starts.
std::size_t line_start(const std::string& bytes, std::size_t index) {
  std::size_t pos = 0;
  for (std::size_t i = 0; i < index; ++i) pos = bytes.find('\n', pos) + 1;
  return pos;
}

TEST(RecordLineMutation, JournalSubstitutionsThrowOrDropTheTornTail) {
  const std::string path = fresh_dir("journal") + ".journal";
  const Campaign::Options options;
  {
    resilience::CampaignJournal journal(path, options);
    for (std::size_t i = 0; i < 3; ++i) {
      Campaign::BotReport report;
      report.outcome = Campaign::BotOutcome::Quarantined;
      report.retries = i;
      journal.record({report, nullptr, env_seed() + i + 2});
    }
  }
  const std::string original = read_file(path);
  ASSERT_EQ(resilience::recover_campaign(path, options).records.size(), 3u);

  const std::size_t last_start = line_start(original, 3);
  for (std::size_t pos = 0; pos < original.size(); ++pos) {
    for (int byte = 0; byte < 256; ++byte) {
      const char c = static_cast<char>(byte);
      if (c == original[pos]) continue;
      std::string mutant = original;
      mutant[pos] = c;
      write_file(path, mutant);

      std::size_t expected = 2;  // records kept from a torn final line
      if (pos + 1 == last_start) {
        expected = 1;
      } else if (pos < last_start ||
                 (c == '\n' && pos + 1 < original.size())) {
        EXPECT_THROW(resilience::recover_campaign(path, options),
                     util::ContractViolation)
            << "byte " << byte << " at " << pos;
        continue;
      }
      const resilience::Recovered recovered =
          resilience::recover_campaign(path, options);
      ASSERT_EQ(recovered.records.size(), expected)
          << "byte " << byte << " at " << pos;
      EXPECT_TRUE(recovered.torn_tail);
      for (std::size_t i = 0; i < expected; ++i) {
        EXPECT_EQ(recovered.records[i].report.retries, i);
      }
      EXPECT_EQ(recovered.state.next_stream, env_seed() + expected + 1);
    }
  }
}

}  // namespace
}  // namespace expert::service
