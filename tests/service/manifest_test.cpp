// Service manifest durability: round-trips every field, and refuses to
// guess on corruption, truncation, digest mismatch, missing files, or a
// tenant record whose fields are not the ones the writer writes, in its
// order.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "expert/resilience/serial.hpp"
#include "expert/util/assert.hpp"
#include "expert/util/hash.hpp"
#include "service_test_util.hpp"

namespace expert::service {
namespace {

using testutil::fresh_dir;
using testutil::read_file;
using testutil::small_spec;

constexpr std::uint64_t kDigest = 0xD16E57ULL;

Manifest sample_manifest() {
  Manifest m;

  ManifestEntry queued;
  queued.spec = small_spec("queued.tenant", 2, 7);
  queued.spec.utility = "budget:12.5";
  queued.spec.quotas.max_eval_units = 5000;
  queued.spec.quotas.max_wall_seconds = 1.25;
  queued.spec.quotas.max_journal_bytes = 1u << 20;
  queued.spec.drift = true;
  queued.phase = TenantPhase::Queued;
  m.entries.push_back(queued);

  ManifestEntry active;
  active.spec = small_spec("active-tenant", 3, 8);
  active.spec.mean_cpu = 1234.5;
  active.spec.min_cpu = 600.0;
  active.spec.max_cpu = 4000.0;
  active.phase = TenantPhase::Active;
  m.entries.push_back(active);

  ManifestEntry done;
  done.spec = small_spec("done_tenant", 1, 9);
  done.phase = TenantPhase::Completed;
  done.bots_done = 1;
  m.entries.push_back(done);

  ManifestEntry killed;
  killed.spec = small_spec("killed", 4, 10);
  killed.phase = TenantPhase::Terminated;
  killed.termination = TerminationCause::EvalUnitBudget;
  killed.bots_done = 2;
  m.entries.push_back(killed);

  return m;
}

void expect_spec_equal(const TenantSpec& a, const TenantSpec& b) {
  EXPECT_EQ(a.id, b.id);
  ASSERT_EQ(a.bots.size(), b.bots.size());
  for (std::size_t i = 0; i < a.bots.size(); ++i) {
    EXPECT_EQ(a.bots[i].tasks, b.bots[i].tasks);
    EXPECT_EQ(a.bots[i].seed, b.bots[i].seed);
  }
  EXPECT_EQ(a.mean_cpu, b.mean_cpu);
  EXPECT_EQ(a.min_cpu, b.min_cpu);
  EXPECT_EQ(a.max_cpu, b.max_cpu);
  EXPECT_EQ(a.utility, b.utility);
  EXPECT_EQ(a.sampling_density, b.sampling_density);
  EXPECT_EQ(a.history_window, b.history_window);
  EXPECT_EQ(a.repetitions, b.repetitions);
  EXPECT_EQ(a.max_backend_retries, b.max_backend_retries);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.quotas.max_eval_units, b.quotas.max_eval_units);
  EXPECT_EQ(a.quotas.max_wall_seconds, b.quotas.max_wall_seconds);
  EXPECT_EQ(a.quotas.max_journal_bytes, b.quotas.max_journal_bytes);
  EXPECT_EQ(a.drift, b.drift);
}

TEST(ManifestIo, RoundTripsEveryField) {
  const std::string path = fresh_dir("manifest") + ".manifest";
  const Manifest original = sample_manifest();
  write_manifest(path, original, kDigest);

  const Manifest loaded = read_manifest(path, kDigest);
  ASSERT_EQ(loaded.entries.size(), original.entries.size());
  for (std::size_t i = 0; i < original.entries.size(); ++i) {
    SCOPED_TRACE("entry " + std::to_string(i));
    expect_spec_equal(loaded.entries[i].spec, original.entries[i].spec);
    EXPECT_EQ(loaded.entries[i].phase, original.entries[i].phase);
    EXPECT_EQ(loaded.entries[i].termination, original.entries[i].termination);
    EXPECT_EQ(loaded.entries[i].bots_done, original.entries[i].bots_done);
  }
}

TEST(ManifestIo, WriteIsDeterministic) {
  const std::string a = fresh_dir("manifest_a") + ".manifest";
  const std::string b = fresh_dir("manifest_b") + ".manifest";
  write_manifest(a, sample_manifest(), kDigest);
  write_manifest(b, sample_manifest(), kDigest);
  EXPECT_EQ(read_file(a), read_file(b));
}

TEST(ManifestIo, BytesMatchThePinnedDigest) {
  // Pinned from the writer before it moved onto the shared record line:
  // the manifest's bytes are a persisted format and must not drift.
  const std::string path = fresh_dir("pinned") + ".manifest";
  write_manifest(path, sample_manifest(), kDigest);
  const std::string bytes = read_file(path);
  EXPECT_EQ(bytes.size(), 1099u);
  EXPECT_EQ(util::HashState().mix(std::string_view(bytes)).digest(),
            0x79E3F398B97A32BFULL);
}

TEST(ManifestIo, MissingFileThrows) {
  EXPECT_THROW(read_manifest(fresh_dir("absent") + "/nope.manifest", kDigest),
               util::ContractViolation);
}

TEST(ManifestIo, EmptyFileThrows) {
  const std::string path = fresh_dir("empty") + ".manifest";
  { std::ofstream out(path, std::ios::binary); }
  EXPECT_THROW(read_manifest(path, kDigest), util::ContractViolation);
}

TEST(ManifestIo, SchedulingDigestMismatchThrows) {
  const std::string path = fresh_dir("digest") + ".manifest";
  write_manifest(path, sample_manifest(), kDigest);
  EXPECT_THROW(read_manifest(path, kDigest + 1), util::ContractViolation);
}

TEST(ManifestIo, FlippedByteFailsTheLineChecksum) {
  const std::string path = fresh_dir("corrupt") + ".manifest";
  write_manifest(path, sample_manifest(), kDigest);

  std::string bytes = read_file(path);
  // Flip one payload byte on the last line (past its checksum prefix).
  const std::size_t last_line = bytes.rfind('\n', bytes.size() - 2) + 1;
  bytes[last_line + 20] ^= 0x01;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  EXPECT_THROW(read_manifest(path, kDigest), util::ContractViolation);
}

TEST(ManifestIo, TruncatedFinalLineThrows) {
  const std::string path = fresh_dir("truncated") + ".manifest";
  write_manifest(path, sample_manifest(), kDigest);

  std::string bytes = read_file(path);
  bytes.resize(bytes.size() - 10);  // drop the trailing newline and more
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  EXPECT_THROW(read_manifest(path, kDigest), util::ContractViolation);
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

/// The sample manifest with its last tenant record's fields (the
/// space-separated tokens after "tenant") passed through `edit` and the
/// line checksummed again, so that only the record grammar can refuse it.
template <typename Edit>
std::string manifest_with_edited_fields(const std::string& path, Edit edit) {
  write_manifest(path, sample_manifest(), kDigest);
  std::string bytes = read_file(path);
  const std::size_t last = bytes.rfind('\n', bytes.size() - 2) + 1;
  const std::string payload = bytes.substr(last + 17, bytes.size() - last - 18);
  std::vector<std::string> fields;
  for (std::size_t pos = 0; pos <= payload.size();) {
    const std::size_t end = std::min(payload.find(' ', pos), payload.size());
    fields.push_back(payload.substr(pos, end - pos));
    pos = end + 1;
  }
  EXPECT_EQ(fields.front(), "tenant");
  edit(fields);
  std::string edited = fields.front();
  for (std::size_t i = 1; i < fields.size(); ++i) edited += ' ' + fields[i];
  bytes.resize(last);
  resilience::serial::append_record_line(bytes, kManifestChecksumSalt,
                                         edited);
  return bytes;
}

TEST(ManifestIo, TenantFieldsAreReadOnceEachInWrittenOrder) {
  const std::string path = fresh_dir("fields") + ".manifest";
  // Unedited, the re-checksummed record reads back.
  write_file(path, manifest_with_edited_fields(
                       path, [](std::vector<std::string>&) {}));
  EXPECT_EQ(read_manifest(path, kDigest).entries.size(), 4u);

  const auto refused = [&](const char* what, auto edit) {
    write_file(path, manifest_with_edited_fields(path, edit));
    EXPECT_THROW(read_manifest(path, kDigest), util::ContractViolation)
        << what;
  };
  refused("out of order", [](std::vector<std::string>& f) {
    std::swap(f[6], f[7]);  // utility= and drift=
  });
  refused("repeated", [](std::vector<std::string>& f) {
    f.insert(f.begin() + 4, f[4]);  // done=
  });
  refused("missing", [](std::vector<std::string>& f) {
    f.erase(f.end() - 2);  // qbytes=
  });
  refused("unknown", [](std::vector<std::string>& f) {
    f.insert(f.end() - 1, "extra=1");
  });
}

TEST(ManifestIo, TerminatedEntryWithoutCauseFailsOnRead) {
  const std::string path = fresh_dir("nocause") + ".manifest";
  Manifest m = sample_manifest();
  m.entries[3].termination.reset();  // Terminated without a cause
  write_manifest(path, m, kDigest);
  EXPECT_THROW(read_manifest(path, kDigest), util::ContractViolation);
}

}  // namespace
}  // namespace expert::service
