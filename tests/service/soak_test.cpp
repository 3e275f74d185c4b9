// Service soak (ctest label `service-soak`): an overloaded service under
// tenant-targeted chaos, driven across CI's EXPERT_CHAOS_SEED matrix.
// Admission must shed the overflow deterministically, every admitted
// tenant must reach a terminal phase with sane reports, and a second
// identical run must reproduce every tenant's results and journal bytes.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include "expert/chaos/chaos.hpp"
#include "service_test_util.hpp"

namespace expert::service {
namespace {

using testutil::fresh_dir;
using testutil::read_file;
using testutil::small_spec;

constexpr std::size_t kSubmissions = 10;
constexpr std::size_t kAdmitted = 8;  // 4 active slots + 4 queue slots

/// CI's seed matrix: EXPERT_CHAOS_SEED shifts the fault schedules so each
/// matrix entry soaks a different one, reproducible locally by exporting
/// the same value.
std::uint64_t env_seed_offset() {
  const char* v = std::getenv("EXPERT_CHAOS_SEED");
  return v == nullptr ? 0 : std::strtoull(v, nullptr, 10);
}

chaos::ChaosConfig soak_plan(std::uint64_t seed) {
  chaos::ChaosConfig plan;
  plan.seed = 0x50AC + seed + 1000 * env_seed_offset();
  plan.blackouts_per_group = 1;
  plan.blackout_window_s = 3000.0;
  plan.blackout_mean_duration_s = 2000.0;
  plan.dispatch_failure_prob = 0.10;
  plan.dispatch_backoff_base_s = 20.0;
  plan.dispatch_backoff_max_s = 320.0;
  plan.result_loss_prob = 0.05 * static_cast<double>(seed % 3);
  return plan;
}

TenantSpec soak_spec(std::size_t i) {
  TenantSpec spec =
      small_spec(std::string("t").append(std::to_string(i)), 2, 300 + i);
  if (i == 2) {
    // One tenant carries a byte budget even the journal header exceeds;
    // journal growth is deterministic, so the trip point is too.
    spec.quotas.max_journal_bytes = 1;
  }
  return spec;
}

struct SoakOutcome {
  CampaignService::Stats stats;
  std::vector<CampaignService::TenantStatus> status;
  std::vector<std::vector<core::Campaign::BotReport>> reports;
  std::vector<std::string> journals;
};

SoakOutcome run_soak(const std::string& state_dir) {
  CampaignService::Options options;
  options.max_active_tenants = 4;
  options.queue_capacity = 4;
  options.quantum_units = 100;  // forces multi-round interleaving
  options.state_dir = state_dir;

  GridsimBackendOptions gopts;
  gopts.seed = 11 + env_seed_offset();
  // Two tenants under fire — one active from the start, one that begins
  // queued — while the other six must run exactly as if alone.
  gopts.chaos.push_back({"t1", soak_plan(1)});
  gopts.chaos.push_back({"t5", soak_plan(5)});
  options.backend_factory = make_gridsim_backend_factory(std::move(gopts));

  CampaignService svc(std::move(options));
  for (std::size_t i = 0; i < kSubmissions; ++i) {
    const auto result = svc.submit(soak_spec(i));
    if (i < kAdmitted) {
      EXPECT_TRUE(result.admitted) << "tenant " << i;
    } else {
      EXPECT_FALSE(result.admitted) << "tenant " << i;
      EXPECT_EQ(*result.shed, ShedReason::QueueFull);
    }
  }
  svc.run_until_idle();

  SoakOutcome out;
  out.stats = svc.stats();
  out.status = svc.status();
  for (std::size_t i = 0; i < kAdmitted; ++i) {
    const std::string id = std::string("t").append(std::to_string(i));
    out.reports.push_back(svc.reports(id));
    out.journals.push_back(read_file(state_dir + "/" + id + ".journal"));
  }
  return out;
}

void check_sane(const core::Campaign::BotReport& r) {
  EXPECT_FALSE(std::isnan(r.makespan));
  EXPECT_FALSE(std::isnan(r.tail_makespan));
  EXPECT_FALSE(std::isnan(r.cost_per_task_cents));
  EXPECT_GT(r.makespan, 0.0);
  EXPECT_GE(r.cost_per_task_cents, 0.0);
  EXPECT_FALSE(r.strategy.name.empty());
}

TEST(ServiceSoak, OverloadedChaoticServiceConvergesAndReproduces) {
  const SoakOutcome first = run_soak(fresh_dir("soak_a"));
  const SoakOutcome second = run_soak(fresh_dir("soak_b"));

  // Shed bounds are exact: overload rejected precisely the overflow.
  EXPECT_EQ(first.stats.admitted, kAdmitted);
  EXPECT_EQ(first.stats.shed_total, kSubmissions - kAdmitted);
  EXPECT_EQ(
      first.stats.shed[static_cast<std::size_t>(ShedReason::QueueFull)],
      kSubmissions - kAdmitted);

  // Every admitted tenant reached a terminal phase; only the byte-capped
  // tenant terminated, everyone else completed all BoTs under fire.
  ASSERT_EQ(first.status.size(), kAdmitted);
  for (const auto& s : first.status) {
    SCOPED_TRACE("tenant " + s.id);
    if (s.id == "t2") {
      EXPECT_EQ(s.phase, TenantPhase::Terminated);
      EXPECT_EQ(*s.termination, TerminationCause::JournalByteBudget);
    } else {
      EXPECT_EQ(s.phase, TenantPhase::Completed);
      EXPECT_EQ(s.bots_done, s.bots_total);
    }
  }
  for (const auto& reports : first.reports) {
    for (const auto& r : reports) check_sane(r);
  }

  // Determinism under chaos and overload: the second run reproduces every
  // tenant's reports and journal bytes (round counts may differ — the
  // warm eval cache changes DRR costs, never results).
  EXPECT_EQ(second.stats.admitted, first.stats.admitted);
  EXPECT_EQ(second.stats.shed_total, first.stats.shed_total);
  ASSERT_EQ(second.reports.size(), first.reports.size());
  for (std::size_t i = 0; i < first.reports.size(); ++i) {
    SCOPED_TRACE("tenant t" + std::to_string(i));
    testutil::expect_identical_reports(second.reports[i], first.reports[i]);
    EXPECT_EQ(second.journals[i], first.journals[i]);
  }
}

TEST(ServiceSoak, ChaosFreeNeighborsMatchSoloUnderSoak) {
  // The isolation contract holds under soak conditions too: a tenant that
  // shared the service with two chaos targets and an overloaded queue has
  // the same reports as a solo run.
  const TenantSpec spec = soak_spec(4);

  CampaignService::Options solo_options;
  solo_options.max_active_tenants = 4;
  solo_options.queue_capacity = 4;
  solo_options.quantum_units = 100;
  GridsimBackendOptions gopts;
  gopts.seed = 11 + env_seed_offset();
  gopts.chaos.push_back({"t1", soak_plan(1)});
  gopts.chaos.push_back({"t5", soak_plan(5)});
  solo_options.backend_factory = make_gridsim_backend_factory(std::move(gopts));
  const auto solo = testutil::solo_reports(spec, std::move(solo_options));

  const SoakOutcome shared = run_soak(fresh_dir("soak_solo_ref"));
  testutil::expect_identical_reports(shared.reports[4], solo);
}

}  // namespace
}  // namespace expert::service
