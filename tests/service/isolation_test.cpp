// The tenant fault-isolation differential (ISSUE acceptance): eight
// tenants share one service while exactly one of them is attacked with a
// blackout+loss chaos plan, an injected backend crash (worker-kill
// analog, recovered by campaign retry), and an armed drift detector. The
// attacked tenant must degrade alone — every neighbor's journal is
// byte-identical to a solo run of the same spec.

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <utility>

#include "expert/chaos/chaos.hpp"
#include "service_test_util.hpp"

namespace expert::service {
namespace {

using testutil::fresh_dir;
using testutil::read_file;
using testutil::small_spec;

constexpr std::size_t kTenants = 8;
constexpr const char* kTarget = "t3";

TenantSpec tenant_spec(std::size_t i) {
  TenantSpec spec =
      small_spec(std::string("t").append(std::to_string(i)), 2, 100 + i);
  if (spec.id == kTarget) spec.drift = true;  // armed detector, target only
  return spec;
}

/// The shared backend factory: stock gridsim with a chaos plan aimed at
/// the target tenant, plus one injected backend exception on the target's
/// second BoT attempt (the process-backend worker-kill analog — the
/// campaign retries it on a fresh stream).
CampaignService::BackendFactory faulty_factory(bool inject_crash) {
  GridsimBackendOptions gopts;
  gopts.seed = 7;
  gopts.chaos.push_back(
      {kTarget,
       chaos::parse_chaos_plan(
           "blackouts=1 blackout_window=3000 blackout_duration=2000 "
           "loss=0.3")});
  auto base = make_gridsim_backend_factory(std::move(gopts));
  return [base = std::move(base), inject_crash](const TenantSpec& spec) {
    core::Campaign::Backend backend = base(spec);
    if (!inject_crash || spec.id != kTarget) return backend;
    auto calls = std::make_shared<int>(0);
    return core::Campaign::Backend(
        [backend = std::move(backend), calls](
            const workload::Bot& bot,
            const strategies::StrategyConfig& strategy,
            std::uint64_t stream) {
          if (++*calls == 2) {
            throw std::runtime_error("injected backend crash");
          }
          return backend(bot, strategy, stream);
        });
  };
}

CampaignService::Options service_options(const std::string& state_dir,
                                         bool inject_crash) {
  CampaignService::Options options;
  options.max_active_tenants = 4;  // forces queueing: promotion mid-run
  options.queue_capacity = 8;
  options.quantum_units = 200;  // forces interleaving across rounds
  options.state_dir = state_dir;
  options.backend_factory = faulty_factory(inject_crash);
  return options;
}

TEST(Isolation, ChaosTargetedTenantDegradesAlone) {
  // Shared run: all eight tenants, chaos + crash + drift on the target.
  const std::string multi_dir = fresh_dir("iso_multi");
  CampaignService multi(service_options(multi_dir, /*inject_crash=*/true));
  for (std::size_t i = 0; i < kTenants; ++i) {
    ASSERT_TRUE(multi.submit(tenant_spec(i)).admitted);
  }
  multi.run_until_idle();

  const auto target = multi.status(kTarget);
  ASSERT_TRUE(target.has_value());
  EXPECT_EQ(target->phase, TenantPhase::Completed);
  // The injected crash hit the target's second BoT and was retried.
  const auto& target_reports = multi.reports(kTarget);
  ASSERT_EQ(target_reports.size(), 2u);
  EXPECT_EQ(target_reports[1].outcome,
            core::Campaign::BotOutcome::CompletedAfterRetry);
  EXPECT_GE(target_reports[1].retries, 1u);

  // Every neighbor: solo run of the identical spec under the identical
  // factory (whose chaos plan names only the target), then byte-compare
  // journals and field-compare reports.
  for (std::size_t i = 0; i < kTenants; ++i) {
    const TenantSpec spec = tenant_spec(i);
    if (spec.id == kTarget) continue;
    SCOPED_TRACE("tenant " + spec.id);

    const std::string solo_dir = fresh_dir("iso_solo_" + spec.id);
    CampaignService solo(service_options(solo_dir, /*inject_crash=*/true));
    ASSERT_TRUE(solo.submit(spec).admitted);
    solo.run_until_idle();

    ASSERT_EQ(multi.status(spec.id)->phase, TenantPhase::Completed);
    testutil::expect_identical_reports(multi.reports(spec.id),
                                       solo.reports(spec.id));
    EXPECT_EQ(read_file(multi_dir + "/" + spec.id + ".journal"),
              read_file(solo_dir + "/" + spec.id + ".journal"));
  }

  // And the target really was perturbed: against a fault-free solo run of
  // the same spec (no chaos entry, no crash), at least one report field
  // differs — the faults had teeth, they just stayed inside the fence.
  const std::string clean_dir = fresh_dir("iso_clean");
  CampaignService::Options clean_options =
      service_options(clean_dir, /*inject_crash=*/false);
  GridsimBackendOptions clean_gopts;
  clean_gopts.seed = 7;
  clean_options.backend_factory =
      make_gridsim_backend_factory(std::move(clean_gopts));
  CampaignService clean(std::move(clean_options));
  ASSERT_TRUE(clean.submit(tenant_spec(3)).admitted);
  clean.run_until_idle();

  const auto& clean_reports = clean.reports(kTarget);
  ASSERT_EQ(clean_reports.size(), target_reports.size());
  bool perturbed = false;
  for (std::size_t i = 0; i < clean_reports.size(); ++i) {
    if (clean_reports[i].makespan != target_reports[i].makespan ||
        clean_reports[i].retries != target_reports[i].retries ||
        clean_reports[i].outcome != target_reports[i].outcome) {
      perturbed = true;
    }
  }
  EXPECT_TRUE(perturbed) << "the chaos plan did not affect its target";
}

TEST(Isolation, TargetedChaosPlansRouteByTenantId) {
  const auto plans = chaos::parse_targeted_plans(
      "t3:blackouts=1,blackout_window=3000,blackout_duration=2000;"
      "t5:loss=0.2");
  ASSERT_EQ(plans.size(), 2u);
  EXPECT_NE(chaos::plan_for(plans, "t3"), nullptr);
  EXPECT_NE(chaos::plan_for(plans, "t5"), nullptr);
  EXPECT_EQ(chaos::plan_for(plans, "t0"), nullptr);
  EXPECT_EQ(plans[0].config.blackouts_per_group, 1u);
}

}  // namespace
}  // namespace expert::service
