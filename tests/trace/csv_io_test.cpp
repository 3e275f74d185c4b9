#include "expert/trace/csv_io.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace expert::trace {
namespace {

ExecutionTrace make_trace() {
  std::vector<InstanceRecord> records = {
      {0, PoolKind::Unreliable, 0.0, 123.456, InstanceOutcome::Success, 1.25,
       false},
      {1, PoolKind::Unreliable, 10.0, kNeverReturns, InstanceOutcome::Timeout,
       0.0, false},
      {1, PoolKind::Reliable, 500.0, 60.0, InstanceOutcome::Success, 34.0,
       true},
      {2, PoolKind::Reliable, 510.0, kNeverReturns, InstanceOutcome::Cancelled,
       0.0, true},
      {2, PoolKind::Unreliable, 480.0, 70.0, InstanceOutcome::Success, 0.5,
       true},
  };
  return ExecutionTrace(3, std::move(records), 450.0, 600.0);
}

TEST(TraceCsv, RoundTripPreservesEverything) {
  const auto original = make_trace();
  std::ostringstream out;
  write_csv(original, out);
  std::istringstream in(out.str());
  const auto parsed = read_csv(in);

  EXPECT_EQ(parsed.task_count(), original.task_count());
  EXPECT_DOUBLE_EQ(parsed.t_tail(), original.t_tail());
  EXPECT_DOUBLE_EQ(parsed.makespan(), original.makespan());
  ASSERT_EQ(parsed.records().size(), original.records().size());
  for (std::size_t i = 0; i < parsed.records().size(); ++i) {
    const auto& a = original.records()[i];
    const auto& b = parsed.records()[i];
    EXPECT_EQ(a.task, b.task);
    EXPECT_EQ(a.pool, b.pool);
    EXPECT_DOUBLE_EQ(a.send_time, b.send_time);
    EXPECT_EQ(a.outcome, b.outcome);
    EXPECT_DOUBLE_EQ(a.cost_cents, b.cost_cents);
    EXPECT_EQ(a.tail_phase, b.tail_phase);
    if (a.successful()) {
      EXPECT_DOUBLE_EQ(a.turnaround, b.turnaround);
    } else {
      EXPECT_EQ(b.turnaround, kNeverReturns);
    }
  }
}

TEST(TraceCsv, DerivedStatsSurviveRoundTrip) {
  const auto original = make_trace();
  std::ostringstream out;
  write_csv(original, out);
  std::istringstream in(out.str());
  const auto parsed = read_csv(in);
  EXPECT_DOUBLE_EQ(parsed.total_cost_cents(), original.total_cost_cents());
  EXPECT_EQ(parsed.reliable_instances_sent(),
            original.reliable_instances_sent());
  EXPECT_DOUBLE_EQ(parsed.average_reliability(),
                   original.average_reliability());
}

TEST(TraceCsv, RejectsMissingMeta) {
  std::istringstream in("task,pool\n0,unreliable\n");
  EXPECT_THROW(read_csv(in), std::runtime_error);
}

TEST(TraceCsv, RejectsMalformedRow) {
  std::ostringstream out;
  write_csv(make_trace(), out);
  std::istringstream in(out.str() + "1,unreliable,0\n");
  EXPECT_THROW(read_csv(in), std::runtime_error);
}

TEST(TraceCsv, RejectsUnknownPool) {
  std::istringstream in(
      "#meta,1,0,1\n"
      "task,pool,send_time,turnaround,outcome,cost_cents,tail_phase\n"
      "0,marsgrid,0,1,success,0,0\n");
  EXPECT_THROW(read_csv(in), std::runtime_error);
}

TEST(TraceCsv, ParseErrorsNameTheOneBasedLine) {
  std::ostringstream out;
  write_csv(make_trace(), out);
  // The malformed row lands after 2 header lines + 5 records -> line 8.
  std::istringstream in(out.str() + "1,unreliable,0\n");
  try {
    read_csv(in);
    FAIL() << "expected a parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 8"), std::string::npos)
        << e.what();
  }
}

TEST(TraceCsv, MetaErrorsNameLineOne) {
  std::istringstream in(
      "#meta,1,zero,1\n"
      "task,pool,send_time,turnaround,outcome,cost_cents,tail_phase\n");
  try {
    read_csv(in);
    FAIL() << "expected a parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 1"), std::string::npos)
        << e.what();
  }
}

TEST(TraceCsv, TruncatedFlagSurvivesRoundTrip) {
  std::vector<InstanceRecord> records = {
      {0, PoolKind::Unreliable, 0.0, 100.0, InstanceOutcome::Success, 1.0,
       false},
      {1, PoolKind::Unreliable, 10.0, kNeverReturns, InstanceOutcome::Timeout,
       0.0, false},
  };
  const ExecutionTrace original(2, std::move(records), 50.0, 200.0,
                                /*truncated=*/true);
  std::ostringstream out;
  write_csv(original, out);
  std::istringstream in(out.str());
  const auto parsed = read_csv(in);
  EXPECT_TRUE(parsed.truncated());
}

TEST(TraceCsv, LegacyFourFieldMetaLoadsAsNotTruncated) {
  std::istringstream in(
      "#meta,1,0,1\n"
      "task,pool,send_time,turnaround,outcome,cost_cents,tail_phase\n"
      "0,unreliable,0,1,success,0,0\n");
  const auto parsed = read_csv(in);
  EXPECT_FALSE(parsed.truncated());
  EXPECT_EQ(parsed.records().size(), 1u);
}

}  // namespace
}  // namespace expert::trace
