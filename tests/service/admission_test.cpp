// Admission control: bounded active set + queue, deterministic
// load-shedding with per-reason accounting, and no state growth on the
// shed path — overload rejects with a reason, it never admits or OOMs.

#include <gtest/gtest.h>

#include "expert/obs/metrics.hpp"
#include "service_test_util.hpp"

namespace expert::service {
namespace {

using testutil::small_options;
using testutil::small_spec;

TEST(Admission, FillsSlotsThenQueueThenSheds) {
  auto options = small_options();
  options.max_active_tenants = 2;
  options.queue_capacity = 2;
  CampaignService svc(std::move(options));

  const auto a = svc.submit(small_spec("a", 1, 1));
  const auto b = svc.submit(small_spec("b", 1, 2));
  ASSERT_TRUE(a.admitted);
  ASSERT_TRUE(b.admitted);
  EXPECT_EQ(a.phase, TenantPhase::Active);
  EXPECT_EQ(b.phase, TenantPhase::Active);

  const auto c = svc.submit(small_spec("c", 1, 3));
  const auto d = svc.submit(small_spec("d", 1, 4));
  ASSERT_TRUE(c.admitted);
  ASSERT_TRUE(d.admitted);
  EXPECT_EQ(c.phase, TenantPhase::Queued);
  EXPECT_EQ(d.phase, TenantPhase::Queued);

  const auto e = svc.submit(small_spec("e", 1, 5));
  EXPECT_FALSE(e.admitted);
  ASSERT_TRUE(e.shed.has_value());
  EXPECT_EQ(*e.shed, ShedReason::QueueFull);

  // The shed submission left no trace in the tenant registry.
  EXPECT_EQ(svc.status().size(), 4u);
  EXPECT_FALSE(svc.status("e").has_value());

  // Queued tenants drain into freed slots and everyone completes.
  svc.run_until_idle();
  for (const auto& s : svc.status()) {
    EXPECT_EQ(s.phase, TenantPhase::Completed);
    EXPECT_EQ(s.bots_done, s.bots_total);
  }
}

TEST(Admission, DuplicateIdShedInEveryPhase) {
  CampaignService svc(small_options());
  ASSERT_TRUE(svc.submit(small_spec("dup", 1, 1)).admitted);

  const auto active_again = svc.submit(small_spec("dup", 1, 2));
  EXPECT_FALSE(active_again.admitted);
  EXPECT_EQ(*active_again.shed, ShedReason::DuplicateTenant);

  svc.run_until_idle();
  ASSERT_EQ(svc.status("dup")->phase, TenantPhase::Completed);
  const auto completed_again = svc.submit(small_spec("dup", 1, 3));
  EXPECT_FALSE(completed_again.admitted);
  EXPECT_EQ(*completed_again.shed, ShedReason::DuplicateTenant);
}

TEST(Admission, InvalidSpecsShedWithDetail) {
  CampaignService svc(small_options());

  auto no_id = small_spec("", 1, 1);
  auto result = svc.submit(no_id);
  EXPECT_FALSE(result.admitted);
  EXPECT_EQ(*result.shed, ShedReason::InvalidSpec);
  EXPECT_FALSE(result.detail.empty());

  auto bad_utility = small_spec("u", 1, 1);
  bad_utility.utility = "budget:not-a-number";
  result = svc.submit(bad_utility);
  EXPECT_FALSE(result.admitted);
  EXPECT_EQ(*result.shed, ShedReason::InvalidSpec);

  auto bad_cpu = small_spec("cpu", 1, 1);
  bad_cpu.min_cpu = 3000.0;  // min > mean
  result = svc.submit(bad_cpu);
  EXPECT_FALSE(result.admitted);
  EXPECT_EQ(*result.shed, ShedReason::InvalidSpec);

  auto no_bots = small_spec("nb", 1, 1);
  no_bots.bots.clear();
  result = svc.submit(no_bots);
  EXPECT_FALSE(result.admitted);
  EXPECT_EQ(*result.shed, ShedReason::InvalidSpec);

  EXPECT_EQ(svc.stats().shed_total, 4u);
  EXPECT_EQ(svc.stats().shed[static_cast<std::size_t>(
                ShedReason::InvalidSpec)],
            4u);
  EXPECT_TRUE(svc.status().empty());
}

TEST(Admission, ShutdownShedsNewSubmissions) {
  CampaignService svc(small_options());
  ASSERT_TRUE(svc.submit(small_spec("before", 1, 1)).admitted);
  svc.begin_shutdown();

  const auto after = svc.submit(small_spec("after", 1, 2));
  EXPECT_FALSE(after.admitted);
  EXPECT_EQ(*after.shed, ShedReason::ShuttingDown);

  // Already-admitted work still runs to completion.
  svc.run_until_idle();
  EXPECT_EQ(svc.status("before")->phase, TenantPhase::Completed);
}

TEST(Admission, OverloadShedsDeterministicallyWithCounters) {
  obs::Registry& reg = obs::Registry::global();
  reg.reset();
  reg.set_enabled(true);

  const auto overload = [](CampaignService::Stats& out) {
    auto options = small_options();
    options.max_active_tenants = 2;
    options.queue_capacity = 2;
    CampaignService svc(std::move(options));
    for (std::size_t i = 0; i < 1000; ++i) {
      const auto result = svc.submit(
          small_spec(std::string("t").append(std::to_string(i)), 1,
                     i + 1));
      if (i < 4) {
        EXPECT_TRUE(result.admitted);
      } else {
        EXPECT_FALSE(result.admitted);
        EXPECT_EQ(*result.shed, ShedReason::QueueFull);
      }
    }
    // Shedding grew nothing: exactly the admitted tenants are tracked.
    EXPECT_EQ(svc.status().size(), 4u);
    out = svc.stats();
  };

  CampaignService::Stats first;
  CampaignService::Stats second;
  overload(first);
  overload(second);

  EXPECT_EQ(first.admitted, 4u);
  EXPECT_EQ(first.shed_total, 996u);
  EXPECT_EQ(first.shed[static_cast<std::size_t>(ShedReason::QueueFull)],
            996u);
  EXPECT_EQ(second.admitted, first.admitted);
  EXPECT_EQ(second.shed_total, first.shed_total);

  // The shed counter surfaces with its reason label in the snapshot.
  const auto snap = reg.snapshot();
  const auto* shed = snap.counter(
      "service.shed", obs::Labels{{"reason", "queue_full"}});
  ASSERT_NE(shed, nullptr);
  EXPECT_EQ(shed->value, 996u * 2);
  reg.reset();
  reg.set_enabled(false);
}

}  // namespace
}  // namespace expert::service
