// CampaignJournal tests: bit-exact round-trip of every report field,
// torn-tail truncate-and-continue, refusal on mid-file corruption and on an
// options mismatch, and faithful replay of the campaign's history
// bookkeeping (window trimming, drift clears, quarantine skips).

#include "expert/resilience/journal.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "expert/util/assert.hpp"

namespace expert::resilience {
namespace {

using core::Campaign;
using core::DegradationReason;
using trace::ExecutionTrace;
using trace::InstanceRecord;

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + "journal_" + name;
}

Campaign::Options options() {
  Campaign::Options opts;
  opts.params.tur = 1000.0;
  opts.params.tr = 1000.0;
  opts.expert.repetitions = 3;
  opts.history_window = 2;
  return opts;
}

/// A synthetic trace with awkward values on purpose: +inf turnarounds,
/// non-representable decimals, a truncated flag.
ExecutionTrace make_trace(std::uint64_t salt, std::size_t tasks = 8) {
  std::vector<InstanceRecord> records;
  for (std::size_t i = 0; i < tasks; ++i) {
    InstanceRecord r;
    r.task = static_cast<workload::TaskId>(i);
    r.pool = i % 3 == 0 ? trace::PoolKind::Reliable
                        : trace::PoolKind::Unreliable;
    r.send_time = static_cast<double>(i) * 7.3 + static_cast<double>(salt);
    if (i % 4 == 3) {
      r.outcome = trace::InstanceOutcome::Timeout;
      r.turnaround = trace::kNeverReturns;
    } else {
      r.outcome = trace::InstanceOutcome::Success;
      r.turnaround = 100.1 + static_cast<double>(i);
      r.cost_cents = 0.1 * static_cast<double>(i);
    }
    r.tail_phase = i + 2 >= tasks;
    records.push_back(r);
  }
  const double makespan =
      static_cast<double>(tasks) * 7.3 + 160.0 + static_cast<double>(salt);
  return ExecutionTrace(tasks, std::move(records), makespan * 0.75, makespan,
                        salt % 2 == 1);
}

/// A report exercising every optional field.
Campaign::BotReport make_report(std::uint64_t salt) {
  Campaign::BotReport r;
  r.strategy.name = "NTDMr, tuned %strategy";  // separators must escape
  r.strategy.throughput = strategies::ThroughputPolicy::Combined;
  r.strategy.tail_mode = strategies::TailMode::NTDMrTail;
  r.strategy.ntdmr.n = 3;
  r.strategy.ntdmr.timeout_t = 2066.7;
  r.strategy.ntdmr.deadline_d = 4133.4;
  r.strategy.ntdmr.mr = 0.05 + static_cast<double>(salt) * 1e-3;
  r.strategy.budget_cents = 750.0;
  r.used_recommendation = true;
  r.makespan = 5000.3 + static_cast<double>(salt);
  r.tail_makespan = 1200.9;
  r.cost_per_task_cents = 3.7;
  core::StrategyPoint predicted;
  predicted.params.n.reset();  // "inf" arm of the n field
  predicted.params.timeout_t = 2000.0;
  predicted.params.deadline_d = 4000.0;
  predicted.params.mr = 0.1;
  predicted.makespan = 4900.0;
  predicted.cost = 3.5;
  predicted.metrics.finished = true;
  predicted.metrics.makespan = 4900.0;
  predicted.metrics.t_tail = 3600.0;
  predicted.metrics.tail_makespan = 1300.0;
  predicted.metrics.total_cost_cents = 350.0;
  predicted.metrics.cost_per_task_cents = 3.5;
  predicted.metrics.tail_cost_per_tail_task_cents = 8.1;
  predicted.metrics.tail_tasks = 12.0;
  predicted.metrics.reliable_instances_sent = 9.0;
  predicted.metrics.unreliable_instances_sent = 130.0;
  predicted.metrics.duplicate_results = 2.0;
  predicted.metrics.used_mr = 0.09;
  predicted.metrics.max_reliable_queue = 4.0;
  predicted.metrics.max_reliable_queue_fraction = 0.4;
  r.predicted = predicted;
  r.outcome = Campaign::BotOutcome::CompletedAfterRetry;
  r.retries = 1;
  r.truncated = false;
  r.degradation = DegradationReason::InsufficientSamples;
  core::CharacterizationQuality q;
  q.unreliable_instances = 40;
  q.observed_successes = 30;
  q.censored_fraction = 0.25;
  q.epoch1_instances = 20;
  q.epoch2_instances = 20;
  q.sufficient = false;
  r.quality = q;
  r.model_digest = 0xFEEDFACE0000ULL + salt;
  return r;
}

void expect_reports_equal(const Campaign::BotReport& a,
                          const Campaign::BotReport& b) {
  EXPECT_EQ(a.strategy.name, b.strategy.name);
  EXPECT_EQ(a.strategy.throughput, b.strategy.throughput);
  EXPECT_EQ(a.strategy.tail_mode, b.strategy.tail_mode);
  EXPECT_EQ(a.strategy.ntdmr.n, b.strategy.ntdmr.n);
  EXPECT_EQ(a.strategy.ntdmr.timeout_t, b.strategy.ntdmr.timeout_t);
  EXPECT_EQ(a.strategy.ntdmr.deadline_d, b.strategy.ntdmr.deadline_d);
  EXPECT_EQ(a.strategy.ntdmr.mr, b.strategy.ntdmr.mr);
  EXPECT_EQ(a.strategy.budget_cents, b.strategy.budget_cents);
  EXPECT_EQ(a.used_recommendation, b.used_recommendation);
  EXPECT_EQ(a.makespan, b.makespan);  // hexfloat round-trip: bit-exact
  EXPECT_EQ(a.tail_makespan, b.tail_makespan);
  EXPECT_EQ(a.cost_per_task_cents, b.cost_per_task_cents);
  EXPECT_EQ(a.outcome, b.outcome);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.truncated, b.truncated);
  EXPECT_EQ(a.degradation, b.degradation);
  EXPECT_EQ(a.model_digest, b.model_digest);
  ASSERT_EQ(a.predicted.has_value(), b.predicted.has_value());
  if (a.predicted) {
    EXPECT_EQ(a.predicted->params.n, b.predicted->params.n);
    EXPECT_EQ(a.predicted->params.timeout_t, b.predicted->params.timeout_t);
    EXPECT_EQ(a.predicted->params.deadline_d, b.predicted->params.deadline_d);
    EXPECT_EQ(a.predicted->params.mr, b.predicted->params.mr);
    EXPECT_EQ(a.predicted->makespan, b.predicted->makespan);
    EXPECT_EQ(a.predicted->cost, b.predicted->cost);
    EXPECT_EQ(a.predicted->metrics.finished, b.predicted->metrics.finished);
    EXPECT_EQ(a.predicted->metrics.tail_tasks,
              b.predicted->metrics.tail_tasks);
    EXPECT_EQ(a.predicted->metrics.used_mr, b.predicted->metrics.used_mr);
    EXPECT_EQ(a.predicted->metrics.max_reliable_queue_fraction,
              b.predicted->metrics.max_reliable_queue_fraction);
  }
  ASSERT_EQ(a.quality.has_value(), b.quality.has_value());
  if (a.quality) {
    EXPECT_EQ(a.quality->unreliable_instances,
              b.quality->unreliable_instances);
    EXPECT_EQ(a.quality->observed_successes, b.quality->observed_successes);
    EXPECT_EQ(a.quality->censored_fraction, b.quality->censored_fraction);
    EXPECT_EQ(a.quality->epoch1_instances, b.quality->epoch1_instances);
    EXPECT_EQ(a.quality->epoch2_instances, b.quality->epoch2_instances);
    EXPECT_EQ(a.quality->sufficient, b.quality->sufficient);
  }
}

void expect_traces_equal(const ExecutionTrace& a, const ExecutionTrace& b) {
  EXPECT_EQ(a.task_count(), b.task_count());
  EXPECT_EQ(a.t_tail(), b.t_tail());
  EXPECT_EQ(a.makespan(), b.makespan());
  EXPECT_EQ(a.truncated(), b.truncated());
  ASSERT_EQ(a.records().size(), b.records().size());
  for (std::size_t i = 0; i < a.records().size(); ++i) {
    EXPECT_EQ(a.records()[i].task, b.records()[i].task);
    EXPECT_EQ(a.records()[i].pool, b.records()[i].pool);
    EXPECT_EQ(a.records()[i].send_time, b.records()[i].send_time);
    EXPECT_EQ(a.records()[i].turnaround, b.records()[i].turnaround);
    EXPECT_EQ(a.records()[i].outcome, b.records()[i].outcome);
    EXPECT_EQ(a.records()[i].cost_cents, b.records()[i].cost_cents);
    EXPECT_EQ(a.records()[i].tail_phase, b.records()[i].tail_phase);
  }
}

TEST(CampaignJournal, RoundTripsEveryReportField) {
  const std::string path = tmp_path("roundtrip");
  const auto opts = options();
  const auto report = make_report(7);
  const auto trace = make_trace(7);
  {
    CampaignJournal journal(path, opts);
    journal.record(Campaign::BotRecord{report, &trace, 42});
  }
  const auto recovered = recover_campaign(path, opts);
  EXPECT_FALSE(recovered.torn_tail);
  ASSERT_EQ(recovered.records.size(), 1u);
  expect_reports_equal(report, recovered.records[0].report);
  ASSERT_TRUE(recovered.records[0].history.has_value());
  expect_traces_equal(trace, *recovered.records[0].history);
  EXPECT_EQ(recovered.state.next_stream, 42u);
  ASSERT_EQ(recovered.state.reports.size(), 1u);
  ASSERT_EQ(recovered.state.histories.size(), 1u);
  EXPECT_EQ(recovered.state.quarantined, 0u);
}

TEST(CampaignJournal, StrategyNamesHoldingEveryByteRoundTrip) {
  // The record parser splits tokens on every whitespace byte, so a name
  // holding \t, \v, \f or \r must be escaped like a space.
  const std::string path = tmp_path("name_bytes");
  const auto opts = options();
  const auto trace = make_trace(3);
  std::vector<std::string> names;
  {
    CampaignJournal journal(path, opts);
    for (int byte = 1; byte < 256; ++byte) {
      names.push_back("name " + std::string(1, static_cast<char>(byte)) +
                      " end");
      auto report = make_report(static_cast<std::uint64_t>(byte));
      report.strategy.name = names.back();
      journal.record(Campaign::BotRecord{report, &trace,
                                         static_cast<std::uint64_t>(byte)});
    }
  }
  const auto recovered = recover_campaign(path, opts);
  EXPECT_FALSE(recovered.torn_tail);
  ASSERT_EQ(recovered.records.size(), names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(recovered.records[i].report.strategy.name, names[i])
        << "byte " << i + 1;
  }
}

TEST(CampaignJournal, ReplaysHistoryWindowTrimming) {
  const std::string path = tmp_path("window");
  auto opts = options();
  opts.history_window = 2;
  CampaignJournal journal(path, opts);
  std::vector<ExecutionTrace> traces;
  traces.reserve(4);
  for (std::uint64_t i = 0; i < 4; ++i) traces.push_back(make_trace(i));
  for (std::uint64_t i = 0; i < 4; ++i) {
    const auto report = make_report(i);
    journal.record(Campaign::BotRecord{report, &traces[i], i + 2});
  }
  const auto recovered = recover_campaign(path, opts);
  ASSERT_EQ(recovered.records.size(), 4u);
  // Only the last two traces survive the window, exactly as run_bot keeps
  // them.
  ASSERT_EQ(recovered.state.histories.size(), 2u);
  expect_traces_equal(traces[2], recovered.state.histories[0]);
  expect_traces_equal(traces[3], recovered.state.histories[1]);
  EXPECT_EQ(recovered.state.next_stream, 5u);
}

TEST(CampaignJournal, ReplaysDriftClearAndQuarantineSkip) {
  const std::string path = tmp_path("drift_quarantine");
  const auto opts = options();
  CampaignJournal journal(path, opts);

  const auto t0 = make_trace(0);
  auto normal = make_report(0);
  journal.record(Campaign::BotRecord{normal, &t0, 2});

  // A quarantined BoT: no history, still journaled.
  auto quarantined = make_report(1);
  quarantined.outcome = Campaign::BotOutcome::Quarantined;
  quarantined.degradation = DegradationReason::BackendFailure;
  journal.record(Campaign::BotRecord{quarantined, nullptr, 5});

  // A drift trip: the histories accumulated so far are discarded and only
  // the post-drift trace survives.
  const auto t2 = make_trace(2);
  auto drifted = make_report(2);
  drifted.degradation = DegradationReason::ModelDrift;
  journal.record(Campaign::BotRecord{drifted, &t2, 6});

  const auto recovered = recover_campaign(path, opts);
  ASSERT_EQ(recovered.records.size(), 3u);
  EXPECT_EQ(recovered.state.quarantined, 1u);
  ASSERT_EQ(recovered.state.histories.size(), 1u);
  expect_traces_equal(t2, recovered.state.histories[0]);
  EXPECT_FALSE(recovered.records[1].history.has_value());
  EXPECT_EQ(recovered.state.next_stream, 6u);
}

TEST(CampaignJournal, TornTailIsDroppedAndTruncated) {
  const std::string path = tmp_path("torn");
  const auto opts = options();
  const auto report = make_report(3);
  const auto trace = make_trace(3);
  {
    CampaignJournal journal(path, opts);
    journal.record(Campaign::BotRecord{report, &trace, 2});
  }
  // Simulate a crash mid-append: half a line, no trailing newline.
  {
    std::ofstream out(path, std::ios::app | std::ios::binary);
    out << "deadbeef00000000 bot next_stream=3 outcome=compl";
  }
  const auto recovered = recover_campaign(path, opts);
  EXPECT_TRUE(recovered.torn_tail);
  ASSERT_EQ(recovered.records.size(), 1u);
  expect_reports_equal(report, recovered.records[0].report);

  // Recovery truncated the torn bytes: a second recovery is clean, and the
  // journal accepts further appends.
  const auto again = recover_campaign(path, opts);
  EXPECT_FALSE(again.torn_tail);
  ASSERT_EQ(again.records.size(), 1u);
  {
    auto journal = CampaignJournal::reopen(path, opts);
    const auto report2 = make_report(4);
    const auto trace2 = make_trace(4);
    journal.record(Campaign::BotRecord{report2, &trace2, 3});
  }
  EXPECT_EQ(recover_campaign(path, opts).records.size(), 2u);
}

TEST(CampaignJournal, RefusesMidFileCorruption) {
  const std::string path = tmp_path("corrupt");
  const auto opts = options();
  {
    CampaignJournal journal(path, opts);
    const auto report = make_report(5);
    const auto trace = make_trace(5);
    journal.record(Campaign::BotRecord{report, &trace, 2});
    journal.record(Campaign::BotRecord{report, &trace, 3});
  }
  // Flip a payload byte in the middle record: its checksum no longer
  // matches, and because a valid line follows it this is not a torn tail.
  std::string contents;
  {
    std::ifstream in(path, std::ios::binary);
    contents.assign(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
  }
  const std::size_t second_line = contents.find('\n') + 1;
  contents[second_line + 30] ^= 0x1;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << contents;
  }
  EXPECT_THROW(recover_campaign(path, opts), util::ContractViolation);
}

TEST(CampaignJournal, RefusesOptionsMismatch) {
  const std::string path = tmp_path("options");
  const auto opts = options();
  {
    CampaignJournal journal(path, opts);
  }
  auto other = options();
  other.expert.seed += 1;
  EXPECT_THROW(recover_campaign(path, other), util::ContractViolation);
  auto window = options();
  window.history_window += 1;
  EXPECT_THROW(recover_campaign(path, window), util::ContractViolation);
  // The original options still recover fine (empty campaign).
  const auto recovered = recover_campaign(path, opts);
  EXPECT_TRUE(recovered.records.empty());
  EXPECT_EQ(recovered.state.next_stream, 1u);
}

TEST(CampaignJournal, RefusesMissingAndEmptyFiles) {
  EXPECT_THROW(recover_campaign(tmp_path("never_written"), options()),
               util::ContractViolation);
  const std::string path = tmp_path("empty");
  {
    std::ofstream out(path, std::ios::trunc);
  }
  EXPECT_THROW(recover_campaign(path, options()), util::ContractViolation);
}

TEST(CampaignOptionsDigest, SensitiveToReplayRelevantKnobs) {
  const auto base = campaign_options_digest(options());
  auto opts = options();
  opts.expert.repetitions += 1;
  EXPECT_NE(campaign_options_digest(opts), base);
  opts = options();
  opts.params.tur += 1.0;
  EXPECT_NE(campaign_options_digest(opts), base);
  opts = options();
  opts.max_backend_retries += 1;
  EXPECT_NE(campaign_options_digest(opts), base);
  // Function-typed observers do not steer the campaign: no digest change.
  opts = options();
  opts.recorder = [](const Campaign::BotRecord&) {};
  opts.drift_monitor = [](const Campaign::BotReport&,
                          const ExecutionTrace&) { return false; };
  EXPECT_EQ(campaign_options_digest(opts), base);
  // Frontier threading is excluded by design: results are independent of it.
  opts = options();
  opts.expert.frontier.threads = 7;
  EXPECT_EQ(campaign_options_digest(opts), base);
}

}  // namespace
}  // namespace expert::resilience
