#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "expert/core/campaign.hpp"
#include "expert/util/thread_safety.hpp"

namespace expert::resilience {

/// Content digest of everything in a Campaign::Options that determines
/// replay equivalence: user parameters, expert knobs (characterization,
/// sampling, frontier objectives, repetitions, seed, pool size), bootstrap
/// strategy, history window, retry budget, and quality thresholds. A
/// journal written under one digest refuses to resume under another — the
/// remaining BoTs would silently diverge from the uninterrupted run.
/// Function-typed options (recorder, drift_monitor) are excluded: they
/// observe the campaign, they do not steer it.
std::uint64_t campaign_options_digest(const core::Campaign::Options& options);

/// One journal record as read back: the finished BoT's report plus the
/// trace that entered the history (absent for quarantined BoTs).
struct RecoveredRecord {
  core::Campaign::BotReport report;
  std::optional<trace::ExecutionTrace> history;
};

/// Everything recover_campaign reconstructs from a journal.
struct Recovered {
  /// State to hand to Campaign::resume — histories replayed through the
  /// campaign's own semantics (window trimming, drift-trip clearing).
  core::Campaign::RestoredState state;
  /// Every recovered record in order, e.g. to replay a DriftDetector's
  /// internal state before resuming.
  std::vector<RecoveredRecord> records;
  /// A torn trailing line (the record being appended when the process
  /// died) was found and truncated away.
  bool torn_tail = false;
};

/// Append-only, per-record-checksummed journal of a campaign's progress.
///
/// Format: one record per line, `<checksum> <payload>\n`, where the
/// checksum is a 16-hex-digit util::HashState digest of the payload. The
/// first line is a header binding the journal to campaign_options_digest.
/// Fields use the resilience::serial codec: doubles are canonical C
/// hexfloats (the bytes glibc's `%a` prints), so a recovered report is
/// bit-identical to the one recorded; NaN is refused on append and rejected
/// on recovery, and names are percent-escaped so no field holds the
/// whitespace the record parser splits on. Appends go through a single
/// O_APPEND write followed by fsync: a crash leaves at most one torn
/// trailing line, which recovery detects (checksum mismatch) and drops.
///
/// See docs/robustness.md for the full format and recovery contract.
class CampaignJournal {
 public:
  /// Start a fresh journal at `path`, truncating any existing file, and
  /// write the header record.
  CampaignJournal(const std::string& path,
                  const core::Campaign::Options& options);

  /// Reopen an existing journal for appending. Call after
  /// recover_campaign(), which validates the header and truncates any torn
  /// tail; this constructor-wrapper only opens the fd.
  static CampaignJournal reopen(const std::string& path,
                                const core::Campaign::Options& options);

  ~CampaignJournal();
  CampaignJournal(CampaignJournal&& other) noexcept;
  CampaignJournal(const CampaignJournal&) = delete;
  CampaignJournal& operator=(const CampaignJournal&) = delete;
  CampaignJournal& operator=(CampaignJournal&&) = delete;

  /// Append one finished BoT. Throws util::ContractViolation when the
  /// append cannot be made durable — see Campaign::Recorder for why that
  /// must propagate. Thread-safe: concurrent recorders (a campaign driving
  /// a multi-worker backend) serialize on the journal's mutex, so two
  /// records never interleave within one O_APPEND write window.
  void record(const core::Campaign::BotRecord& record)
      EXPERT_EXCLUDES(mutex_);

  /// Recorder closure bound to this journal; the journal must outlive the
  /// Campaign it is attached to.
  core::Campaign::Recorder recorder();

  const std::string& path() const noexcept { return path_; }

  /// Bytes durably in the journal file: its size at open plus every line
  /// appended since (header included). Backs the campaign service's
  /// per-tenant journal-byte quota, and is crash-consistent — a reopened
  /// journal resumes the count from the surviving file size.
  std::uint64_t bytes() const EXPERT_EXCLUDES(mutex_);

 private:
  CampaignJournal(const std::string& path, bool fresh,
                  std::uint64_t options_digest);

  void append_line(const std::string& payload) EXPERT_REQUIRES(mutex_);

  std::string path_;
  /// Serializes appends and guards the descriptor against a concurrent
  /// close: record() may be called from any backend thread, and the fd
  /// must not be torn down (move, destruction) mid-append.
  mutable util::Mutex mutex_;
  int fd_ EXPERT_GUARDED_BY(mutex_) = -1;
  std::uint64_t size_ EXPERT_GUARDED_BY(mutex_) = 0;
};

/// Parse the journal at `path`, validate it against `options`, truncate a
/// torn trailing line when one is found, and reconstruct the campaign
/// state at the last durable record. Throws util::ContractViolation on a
/// missing file, a header digest mismatch, or corruption anywhere before
/// the final line (mid-file corruption is not a crash artifact — refusing
/// to guess beats resuming from wrong state).
Recovered recover_campaign(const std::string& path,
                           const core::Campaign::Options& options);

}  // namespace expert::resilience
