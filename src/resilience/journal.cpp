#include "expert/resilience/journal.hpp"

#include <cerrno>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "expert/obs/metrics.hpp"
#include "expert/resilience/serial.hpp"
#include "expert/util/assert.hpp"
#include "expert/util/eintr.hpp"
#include "expert/util/hash.hpp"

namespace expert::resilience {

namespace {

using core::Campaign;
using core::DegradationReason;
namespace ser = serial;

/// Domain separators for the per-line checksum and the options digest.
constexpr std::uint64_t kChecksumSalt = 0x70A4A15E9B3ULL;
constexpr std::uint64_t kOptionsSalt = 0x0CA42A16D16ULL;

// ---- record payloads ------------------------------------------------------

std::string header_payload(std::uint64_t options_digest) {
  return "hdr v1 options=" + ser::fmt_hex16(options_digest);
}

std::string record_payload(const Campaign::BotRecord& record) {
  const Campaign::BotReport& r = record.report;
  std::string out = "bot next_stream=";
  ser::append_u64(out, record.next_stream);
  out += " outcome=";
  out += core::to_string(r.outcome);
  out += " retries=";
  ser::append_u64(out, r.retries);
  out += r.used_recommendation ? " used_rec=1" : " used_rec=0";
  out += r.truncated ? " truncated=1" : " truncated=0";
  out += " makespan=";
  ser::append_double(out, r.makespan);
  out += " tail_makespan=";
  ser::append_double(out, r.tail_makespan);
  out += " cost=";
  ser::append_double(out, r.cost_per_task_cents);
  out += " degradation=";
  out += r.degradation ? core::to_string(*r.degradation) : "-";
  out += " model=";
  out += r.model_digest ? ser::fmt_hex16(*r.model_digest) : "-";
  out += " strategy=";
  ser::append_strategy(out, r.strategy);
  out += " predicted=";
  out += r.predicted ? ser::serialize_point(*r.predicted) : "-";
  out += " quality=";
  out += r.quality ? ser::serialize_quality(*r.quality) : "-";
  out += " history=";
  if (record.history != nullptr) {
    ser::append_trace(out, *record.history);
  } else {
    out += '-';
  }
  return out;
}

/// An optional field: "-" when absent, else the bytes before the next
/// space.
std::optional<std::string_view> optional_field(ser::Reader& in) {
  const std::string_view field = in.until(' ');
  if (field == "-") return std::nullopt;
  return field;
}

/// Decode one bot record in a single pass, each field in the order
/// record_payload writes it; `next_stream` receives the campaign's stream
/// counter after the record.
RecoveredRecord parse_record_payload(std::string_view payload,
                                     std::uint64_t& next_stream) {
  ser::Reader in(payload);
  EXPERT_REQUIRE(in.consume("bot "), "journal: expected a bot record");
  in.expect("next_stream=");
  next_stream = in.u64();
  RecoveredRecord rec;
  Campaign::BotReport& r = rec.report;
  in.expect(" outcome=");
  r.outcome = ser::outcome_from_string(std::string(in.until(' ')));
  in.expect(" retries=");
  r.retries = static_cast<std::size_t>(in.u64());
  in.expect(" used_rec=");
  r.used_recommendation = in.flag();
  in.expect(" truncated=");
  r.truncated = in.flag();
  in.expect(" makespan=");
  r.makespan = in.real();
  in.expect(" tail_makespan=");
  r.tail_makespan = in.real();
  in.expect(" cost=");
  r.cost_per_task_cents = in.real();
  in.expect(" degradation=");
  if (const auto f = optional_field(in)) {
    r.degradation = ser::degradation_from_string(std::string(*f));
  }
  in.expect(" model=");
  if (const auto f = optional_field(in)) {
    r.model_digest = ser::parse_u64(*f, 16);
  }
  in.expect(" strategy=");
  r.strategy = ser::parse_strategy(in.until(' '));
  in.expect(" predicted=");
  if (const auto f = optional_field(in)) r.predicted = ser::parse_point(*f);
  in.expect(" quality=");
  if (const auto f = optional_field(in)) r.quality = ser::parse_quality(*f);
  in.expect(" history=");
  if (const auto f = optional_field(in)) rec.history = ser::parse_trace(*f);
  in.finish();
  return rec;
}

std::uint64_t line_checksum(const std::string& payload) {
  return util::HashState(kChecksumSalt).mix(std::string_view(payload))
      .digest();
}

std::string errno_text() { return std::strerror(errno); }

struct JournalObs {
  obs::Registry& reg = obs::Registry::global();
  obs::Counter records = reg.counter("resilience.journal.records");
  obs::Counter recovered = reg.counter("resilience.journal.recovered_records");
  obs::Counter torn = reg.counter("resilience.journal.torn_tails");
};

JournalObs& journal_obs() {
  static JournalObs metrics;
  return metrics;
}

}  // namespace

std::uint64_t campaign_options_digest(const Campaign::Options& options) {
  util::HashState h(kOptionsSalt);
  const core::UserParams& p = options.params;
  h.mix(p.tur)
      .mix(p.tr)
      .mix(p.cur_cents_per_s)
      .mix(p.cr_cents_per_s)
      .mix(p.mr_max)
      .mix(p.charging_period_ur_s)
      .mix(p.charging_period_r_s);
  const core::ExpertOptions& e = options.expert;
  h.mix(static_cast<std::uint64_t>(e.characterization.mode))
      .mix(e.characterization.instance_deadline)
      .mix(static_cast<std::uint64_t>(e.characterization.windows_per_epoch));
  h.mix(static_cast<std::uint64_t>(e.sampling.n_values.size()));
  for (const auto& n : e.sampling.n_values) {
    h.mix(n.has_value()).mix(static_cast<std::uint64_t>(n.value_or(0)));
  }
  h.mix(static_cast<std::uint64_t>(e.sampling.d_samples))
      .mix(static_cast<std::uint64_t>(e.sampling.t_samples));
  h.mix(static_cast<std::uint64_t>(e.sampling.mr_values.size()));
  for (const double mr : e.sampling.mr_values) h.mix(mr);
  h.mix(e.sampling.max_deadline).mix(e.sampling.focus_low_end);
  // FrontierOptions::threads and ::service are deliberately excluded: the
  // eval layer's stream-derivation contract makes results independent of
  // both, so they may differ between the original and the resumed process.
  h.mix(static_cast<std::uint64_t>(e.frontier.time_objective))
      .mix(static_cast<std::uint64_t>(e.frontier.cost_objective));
  h.mix(static_cast<std::uint64_t>(e.repetitions))
      .mix(e.seed)
      .mix(static_cast<std::uint64_t>(e.unreliable_size));
  h.mix(options.bootstrap_strategy.has_value());
  if (options.bootstrap_strategy) {
    const strategies::StrategyConfig& s = *options.bootstrap_strategy;
    h.mix(std::string_view(s.name))
        .mix(static_cast<std::uint64_t>(s.throughput))
        .mix(static_cast<std::uint64_t>(s.tail_mode))
        .mix(s.ntdmr.n.has_value())
        .mix(static_cast<std::uint64_t>(s.ntdmr.n.value_or(0)))
        .mix(s.ntdmr.timeout_t)
        .mix(s.ntdmr.deadline_d)
        .mix(s.ntdmr.mr)
        .mix(s.budget_cents);
  }
  h.mix(static_cast<std::uint64_t>(options.history_window))
      .mix(static_cast<std::uint64_t>(options.max_backend_retries))
      .mix(static_cast<std::uint64_t>(options.quality.min_instances))
      .mix(static_cast<std::uint64_t>(options.quality.min_observed_successes));
  return h.digest();
}

CampaignJournal::CampaignJournal(const std::string& path, bool fresh,
                                 std::uint64_t options_digest)
    : path_(path) {
  EXPERT_REQUIRE(!path.empty(), "journal needs a non-empty path");
  const int flags =
      fresh ? (O_WRONLY | O_CREAT | O_TRUNC | O_APPEND) : (O_WRONLY | O_APPEND);
  // EINTR-safe open: with the process backend, SIGCHLD from a dying worker
  // can interrupt any slow syscall in the campaign process.
  fd_ = util::retry_eintr([&] { return ::open(path.c_str(), flags, 0644); });
  EXPERT_REQUIRE(fd_ >= 0,
                 "journal: cannot open " + path + ": " + errno_text());
  util::MutexLock lock(mutex_);
  struct ::stat st {};
  EXPERT_REQUIRE(util::retry_eintr([&] { return ::fstat(fd_, &st); }) == 0,
                 "journal: fstat of " + path + " failed: " + errno_text());
  size_ = static_cast<std::uint64_t>(st.st_size);
  if (fresh) {
    append_line(header_payload(options_digest));
  }
}

CampaignJournal::CampaignJournal(const std::string& path,
                                 const Campaign::Options& options)
    : CampaignJournal(path, /*fresh=*/true, campaign_options_digest(options)) {}

CampaignJournal CampaignJournal::reopen(const std::string& path,
                                        const Campaign::Options& options) {
  return CampaignJournal(path, /*fresh=*/false,
                         campaign_options_digest(options));
}

CampaignJournal::CampaignJournal(CampaignJournal&& other) noexcept
    : path_(std::move(other.path_)), fd_(other.fd_), size_(other.size_) {
  other.fd_ = -1;
  other.size_ = 0;
}

CampaignJournal::~CampaignJournal() {
  util::MutexLock lock(mutex_);
  if (fd_ >= 0) util::close_fd(fd_);
}

void CampaignJournal::append_line(const std::string& payload) {
  const std::string line =
      ser::fmt_hex16(line_checksum(payload)) + ' ' + payload + '\n';
  // One O_APPEND write for the whole line: a crash tears at most this
  // line, which recovery's checksum pass detects and drops. Both the write
  // and the fsync retry EINTR — a worker's death notification arriving
  // mid-append must not be mistaken for a durability failure.
  const char* data = line.data();
  std::size_t left = line.size();
  while (left > 0) {
    const ::ssize_t n =
        util::retry_eintr([&] { return ::write(fd_, data, left); });
    EXPERT_REQUIRE(n >= 0,
                   "journal: write to " + path_ + " failed: " + errno_text());
    data += n;
    left -= static_cast<std::size_t>(n);
  }
  EXPERT_REQUIRE(util::retry_eintr([&] { return ::fsync(fd_); }) == 0,
                 "journal: fsync of " + path_ + " failed: " + errno_text());
  size_ += line.size();
}

std::uint64_t CampaignJournal::bytes() const {
  util::MutexLock lock(mutex_);
  return size_;
}

void CampaignJournal::record(const Campaign::BotRecord& record) {
  {
    util::MutexLock lock(mutex_);
    append_line(record_payload(record));
  }
  journal_obs().records.inc();
}

Campaign::Recorder CampaignJournal::recorder() {
  return [this](const Campaign::BotRecord& record) { this->record(record); };
}

Recovered recover_campaign(const std::string& path,
                           const Campaign::Options& options) {
  std::ifstream in(path, std::ios::binary);
  EXPERT_REQUIRE(in.is_open(), "journal: cannot read " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string contents = buffer.str();
  in.close();

  // Split into lines, remembering each line's start offset so a torn tail
  // can be truncated away precisely. A trailing fragment without '\n' is a
  // line too (it is exactly the torn-append case).
  struct Line {
    std::string text;
    std::size_t offset = 0;
  };
  std::vector<Line> lines;
  std::size_t start = 0;
  while (start < contents.size()) {
    const std::size_t nl = contents.find('\n', start);
    if (nl == std::string::npos) {
      lines.push_back({contents.substr(start), start});
      break;
    }
    lines.push_back({contents.substr(start, nl - start), start});
    start = nl + 1;
  }
  EXPERT_REQUIRE(!lines.empty(), "journal: " + path + " is empty");

  // Checksum-validate a line; nullopt when it is torn/corrupt.
  const auto payload_of = [](const std::string& line)
      -> std::optional<std::string> {
    if (line.size() < 18 || line[16] != ' ') return std::nullopt;
    const std::string checksum_text = line.substr(0, 16);
    for (const char c : checksum_text) {
      const bool hex = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
      if (!hex) return std::nullopt;
    }
    const std::string payload = line.substr(17);
    if (ser::parse_u64(checksum_text, 16) != line_checksum(payload)) {
      return std::nullopt;
    }
    return payload;
  };

  Recovered out;
  const std::uint64_t expected = campaign_options_digest(options);

  const auto header = payload_of(lines[0].text);
  EXPERT_REQUIRE(header.has_value(),
                 "journal: " + path + " has a corrupt header");
  {
    ser::Reader hs(*header);
    EXPERT_REQUIRE(hs.consume("hdr v1 options="),
                   "journal: " + path + " is not a campaign journal");
    const std::uint64_t digest = ser::parse_u64(hs.until(' '), 16);
    hs.finish();
    EXPERT_REQUIRE(digest == expected,
                   "journal: " + path +
                       " was written under different campaign options; "
                       "resuming would diverge from the original run");
  }

  std::size_t valid_end = contents.size();
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const auto payload = payload_of(lines[i].text);
    if (!payload.has_value()) {
      // Only the final line may be torn — that is the crash artifact the
      // format is designed around. Corruption before it means the file was
      // damaged some other way; refuse rather than resume from a guess.
      EXPERT_REQUIRE(i + 1 == lines.size(),
                     "journal: " + path + " is corrupt at line " +
                         std::to_string(i + 1));
      out.torn_tail = true;
      valid_end = lines[i].offset;
      break;
    }
    RecoveredRecord rec =
        parse_record_payload(*payload, out.state.next_stream);
    // Mirror Campaign::run_bot's history bookkeeping exactly.
    if (rec.report.outcome == Campaign::BotOutcome::Quarantined) {
      ++out.state.quarantined;
    } else {
      EXPERT_REQUIRE(rec.history.has_value(),
                     "journal: completed record without a history");
      if (rec.report.degradation == DegradationReason::ModelDrift) {
        out.state.histories.clear();
      }
      out.state.histories.push_back(*rec.history);
      if (out.state.histories.size() > options.history_window) {
        out.state.histories.erase(out.state.histories.begin());
      }
    }
    out.state.reports.push_back(rec.report);
    out.records.push_back(std::move(rec));
  }

  if (out.torn_tail) {
    // EINTR-safe like every other syscall here: a SIGCHLD landing during
    // the truncate must not abort an otherwise valid recovery.
    EXPERT_REQUIRE(util::retry_eintr([&] {
                     return ::truncate(path.c_str(),
                                       static_cast<::off_t>(valid_end));
                   }) == 0,
                   "journal: cannot truncate torn tail of " + path + ": " +
                       errno_text());
    journal_obs().torn.inc();
  }
  journal_obs().recovered.inc(out.records.size());
  return out;
}

}  // namespace expert::resilience
