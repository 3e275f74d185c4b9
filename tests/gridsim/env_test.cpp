// Environment-seam tests: the golden refactor guard (classic executions are
// byte-identical to the pre-seam executor), seeded property tests for each
// pool dynamics, content-digest separation across architectures, and
// end-to-end preemption-cause attribution through the executor.

#include "expert/gridsim/env/environment.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>

#include "expert/core/expert.hpp"
#include "expert/eval/key.hpp"
#include "expert/gridsim/env/dynamics.hpp"
#include "expert/gridsim/executor.hpp"
#include "expert/gridsim/presets.hpp"
#include "expert/gridsim/scenarios.hpp"
#include "expert/trace/csv_io.hpp"
#include "expert/util/assert.hpp"
#include "expert/util/hash.hpp"
#include "expert/util/money.hpp"
#include "expert/workload/presets.hpp"

namespace expert::gridsim::env {
namespace {

const TableVExperiment& experiment11() {
  for (const auto& e : table_v_experiments()) {
    if (e.number == 11) return e;
  }
  throw std::logic_error("Table V has no experiment 11");
}

std::string run_csv(const ExecutorConfig& cfg) {
  const Executor executor(cfg);
  const auto bot = workload::make_bot(experiment11().workload, 0xB07ULL);
  const auto trace =
      executor.run(bot, make_experiment_strategy(experiment11()),
                   /*stream=*/1);
  std::ostringstream csv;
  trace::write_csv(trace, csv);
  return csv.str();
}

// ---------------------------------------------------------------------------
// Golden refactor guard. The digests were pinned at the pre-refactor commit
// (tools/pin_golden recipe: experiment 11, env seed 0x601D, bot seed 0xB07,
// run stream 1; then characterize -> 150-task frontier with 3 repetitions
// and seed 0x601D5EED). A classic environment must keep reproducing them
// byte for byte: any drift in machine build order, RNG stream consumption,
// or cost arithmetic on the classic path fails here first.

TEST(EnvGolden, ClassicExperiment11TraceByteIdentical) {
  const auto cfg = make_experiment_environment(experiment11(), 0x601DULL);
  const std::string csv = run_csv(cfg);
  EXPECT_EQ(csv.size(), 71953u);
  EXPECT_EQ(util::HashState(0x601DULL).mix(csv).digest(),
            0x14e2381265ec7083ULL);
}

TEST(EnvGolden, ClassicExperiment11FrontierByteIdentical) {
  const auto cfg = make_experiment_environment(experiment11(), 0x601DULL);
  const Executor executor(cfg);
  const auto bot = workload::make_bot(experiment11().workload, 0xB07ULL);
  const auto trace =
      executor.run(bot, make_experiment_strategy(experiment11()),
                   /*stream=*/1);

  core::ExpertOptions options;
  options.repetitions = 3;
  options.seed = 0x601D5EEDULL;
  const auto& wl = workload::workload_spec(experiment11().workload);
  core::UserParams params;
  params.tur = wl.mean_cpu;
  params.tr = wl.mean_cpu;
  const auto expert = core::Expert::from_history(trace, params, options);
  const auto frontier = expert.build_frontier(/*task_count=*/150);

  std::ostringstream fr;
  fr << std::hexfloat;
  for (const auto& p : frontier.frontier()) {
    fr << p.makespan << ',' << p.cost << ','
       << (p.params.n ? std::to_string(*p.params.n) : "inf") << ','
       << std::hexfloat << p.params.timeout_t << ',' << p.params.deadline_d
       << ',' << p.params.mr << '\n';
  }
  EXPECT_EQ(frontier.frontier().size(), 18u);
  EXPECT_EQ(util::HashState(0x601DULL).mix(fr.str()).digest(),
            0x2ef993c7f501ebeaULL);
}

TEST(EnvGolden, ConfigWithoutPoolsIsRejected) {
  // The environment is the executor's only pool input: a default config
  // has none and must fail Environment::validate instead of running.
  try {
    const Executor executor{ExecutorConfig{}};
    FAIL() << "an executor without pools must not construct";
  } catch (const util::ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("at least one pool"),
              std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------------
// Spot-market dynamics.

TEST(SpotDynamics, OutOfBidSetMonotoneInVolatility) {
  // The shocks are volatility-free, so for bid > initial the set of
  // out-of-bid steps can only grow with volatility: every step evicted at
  // low volatility is evicted at high volatility too.
  constexpr double kHorizon = 2.0e6;
  SpotMarketDynamics low;
  SpotMarketDynamics high;
  low.volatility = 0.2;
  high.volatility = 0.6;
  const auto path_low = spot_price_path(low, kHorizon, /*stream=*/7);
  const auto path_high = spot_price_path(high, kHorizon, /*stream=*/7);
  ASSERT_EQ(path_low.size(), path_high.size());
  std::size_t evicted_low = 0;
  std::size_t evicted_high = 0;
  for (std::size_t k = 0; k < path_low.size(); ++k) {
    const bool out_low = path_low[k].rate_cents_per_s > low.bid_cents_per_s;
    const bool out_high =
        path_high[k].rate_cents_per_s > high.bid_cents_per_s;
    if (out_low) {
      EXPECT_TRUE(out_high) << "step " << k;
    }
    evicted_low += out_low ? 1 : 0;
    evicted_high += out_high ? 1 : 0;
  }
  EXPECT_GT(evicted_low, 0u);
  EXPECT_GT(evicted_high, evicted_low);

  // Same property through the window generator: total out-of-bid time is
  // monotone non-decreasing in volatility.
  double total_low = 0.0;
  for (const auto& w : spot_out_of_bid_windows(low, kHorizon, 7))
    total_low += w.end - w.start;
  double total_high = 0.0;
  for (const auto& w : spot_out_of_bid_windows(high, kHorizon, 7))
    total_high += w.end - w.start;
  EXPECT_GE(total_high, total_low);
  EXPECT_GT(total_low, 0.0);
}

TEST(SpotDynamics, WindowsCarryOutOfBidCause) {
  SpotMarketDynamics spec;
  spec.volatility = 0.6;
  for (const auto& w : spot_out_of_bid_windows(spec, 1.0e6, 3)) {
    EXPECT_EQ(w.cause, chaos::WindowCause::OutOfBid);
    EXPECT_LT(w.start, w.end);
  }
}

TEST(SpotDynamics, RateLookupIsPiecewiseConstant) {
  SpotMarketDynamics spec;
  const auto path = spot_price_path(spec, 10000.0, 1);
  ASSERT_GE(path.size(), 2u);
  EXPECT_DOUBLE_EQ(spot_rate_at(path, 0.0), path[0].rate_cents_per_s);
  EXPECT_DOUBLE_EQ(spot_rate_at(path, spec.step_s - 1.0),
                   path[0].rate_cents_per_s);
  EXPECT_DOUBLE_EQ(spot_rate_at(path, spec.step_s),
                   path[1].rate_cents_per_s);
  EXPECT_DOUBLE_EQ(spot_rate_at(path, 1.0e9),
                   path.back().rate_cents_per_s);
}

// ---------------------------------------------------------------------------
// Serverless dynamics.

TEST(ServerlessDynamics, PerMillisecondClosedFormCost) {
  // A serverless pool's machines are homogeneous speed-1 and never fail, so
  // every successful instance of a task with CPU time c must cost exactly
  // the per-ms closed form ceil(c / 1ms) * 1ms * rate.
  ServerlessDynamics spec;
  spec.max_concurrency = 8;
  spec.cold_start_mean_s = 1.0;
  Environment env("faas-only", {PoolSpec{PoolRole::Grid,
                                         make_serverless_pool("FaaS", spec),
                                         StaticDynamics{}}});
  ExecutorConfig cfg;
  cfg.environment = env;
  cfg.throughput_deadline = 4.0 * 2066.0;
  cfg.seed = 0x601DULL;
  const Executor executor(cfg);
  const auto bot =
      workload::make_synthetic_bot("b", 40, 2066.0, 300.0, 6000.0, 0xB07ULL);
  strategies::NTDMr p;
  p.n = std::nullopt;  // N = inf: grid-only, no reliable capacity needed
  p.timeout_t = 4.0 * 2066.0;
  p.deadline_d = 4.0 * 2066.0;
  p.mr = 0.0;
  const auto trace =
      executor.run(bot, strategies::make_ntdmr_strategy(p), /*stream=*/2);

  std::size_t successes = 0;
  for (const auto& r : trace.records()) {
    if (!r.successful()) continue;
    ++successes;
    const double c = bot.task(r.task).cpu_seconds;
    const double closed_form =
        std::ceil(c / 0.001) * 0.001 * spec.rate_cents_per_s;
    EXPECT_NEAR(r.cost_cents, closed_form, 1e-9);
    EXPECT_NEAR(r.cost_cents,
                util::charge_cents(c, spec.rate_cents_per_s, 0.001), 1e-12);
  }
  EXPECT_EQ(successes, bot.size());
}

// ---------------------------------------------------------------------------
// Multi-region dynamics.

TEST(MultiRegionDynamics, MatchesChaosBlackoutSchedule) {
  // Environment blackouts delegate to the chaos layer's generator, so a
  // chaos plan with equal parameters draws the identical correlated
  // windows — region by region, boundary for boundary.
  MultiRegionDynamics spec;
  chaos::ChaosConfig plan;
  plan.seed = spec.seed;
  plan.blackouts_per_group = spec.blackouts_per_region;
  plan.blackout_window_s = spec.blackout_window_s;
  plan.blackout_mean_duration_s = spec.blackout_mean_duration_s;

  const auto regions = region_blackout_windows(spec, 4, /*stream=*/5);
  const auto chaos_windows = chaos::blackout_schedule(plan, 4, /*stream=*/5);
  ASSERT_EQ(regions.size(), chaos_windows.size());
  std::size_t total = 0;
  for (std::size_t r = 0; r < regions.size(); ++r) {
    ASSERT_EQ(regions[r].size(), chaos_windows[r].size()) << "region " << r;
    for (std::size_t i = 0; i < regions[r].size(); ++i) {
      EXPECT_DOUBLE_EQ(regions[r][i].start, chaos_windows[r][i].start);
      EXPECT_DOUBLE_EQ(regions[r][i].end, chaos_windows[r][i].end);
    }
    total += regions[r].size();
  }
  EXPECT_GT(total, 0u);
}

// ---------------------------------------------------------------------------
// Volunteer dynamics.

TEST(VolunteerDynamics, DutyCycleMatchesLongRunAvailability) {
  // Alternating exponential on/off phases: across many hosts and a long
  // horizon, the off fraction concentrates at off / (on + off) = 1/3 for
  // the default 4 h on / 2 h off cycle.
  VolunteerDynamics spec;
  constexpr double kHorizon = 5.0e7;
  constexpr std::size_t kHosts = 24;
  double off_time = 0.0;
  for (std::size_t host = 0; host < kHosts; ++host) {
    const auto windows = volunteer_off_windows(spec, kHorizon, host, 3);
    EXPECT_FALSE(windows.empty());
    for (const auto& w : windows) {
      EXPECT_EQ(w.cause, chaos::WindowCause::DutyCycle);
      off_time += std::min(w.end, kHorizon) - w.start;
    }
  }
  const double expected = spec.duty_off_mean_s /
                          (spec.duty_on_mean_s + spec.duty_off_mean_s);
  EXPECT_NEAR(off_time / (kHorizon * static_cast<double>(kHosts)), expected,
              0.02);
}

TEST(VolunteerDynamics, HostsDrawIndependentPhases) {
  VolunteerDynamics spec;
  const auto a = volunteer_off_windows(spec, 1.0e6, 0, 3);
  const auto b = volunteer_off_windows(spec, 1.0e6, 1, 3);
  ASSERT_FALSE(a.empty());
  ASSERT_FALSE(b.empty());
  EXPECT_NE(a.front().start, b.front().start);
}

// ---------------------------------------------------------------------------
// Content digests and eval-key separation.

TEST(EnvDigest, IdenticalPoolsDifferentDynamicsNeverShareADigest) {
  const PoolConfig grid = make_osg(20, 0.85, 2066.0);
  const PoolConfig cloud = make_tech(20);
  const std::vector<Dynamics> cloud_dynamics = {
      StaticDynamics{}, SpotMarketDynamics{}, ServerlessDynamics{}};
  const std::vector<Dynamics> grid_dynamics = {
      StaticDynamics{}, MultiRegionDynamics{}, VolunteerDynamics{}};
  std::set<std::uint64_t> digests;
  std::size_t combos = 0;
  for (const auto& gd : grid_dynamics) {
    for (const auto& cd : cloud_dynamics) {
      const Environment env("same-pools",
                            {PoolSpec{PoolRole::Grid, grid, gd},
                             PoolSpec{PoolRole::Cloud, cloud, cd}});
      digests.insert(env.digest());
      ++combos;
    }
  }
  EXPECT_EQ(digests.size(), combos);
}

TEST(EnvDigest, ParameterChangesMoveTheDigest) {
  const PoolConfig cloud = make_tech(20);
  SpotMarketDynamics base;
  SpotMarketDynamics hotter = base;
  hotter.volatility = base.volatility + 0.1;
  const Environment a("e", {PoolSpec{PoolRole::Cloud, cloud, base}});
  const Environment b("e", {PoolSpec{PoolRole::Cloud, cloud, hotter}});
  EXPECT_NE(a.digest(), b.digest());
}

TEST(EnvDigest, NameIsExcluded) {
  const PoolConfig grid = make_osg(10, 0.85, 2066.0);
  const Environment a("alpha", {PoolSpec{PoolRole::Grid, grid}});
  const Environment b("beta", {PoolSpec{PoolRole::Grid, grid}});
  EXPECT_EQ(a.digest(), b.digest());
}

TEST(EnvDigest, ReferenceEnvironmentsPairwiseDistinct) {
  std::set<std::uint64_t> digests;
  for (const auto arch : all_architectures()) {
    digests.insert(
        make_reference_environment(arch, 50, 0.827, 2066.0).digest());
  }
  EXPECT_EQ(digests.size(), all_architectures().size());
}

TEST(EnvDigest, EvalKeySeparatesArchitectures) {
  strategies::NTDMr p;
  p.n = 1;
  p.timeout_t = 1000.0;
  p.deadline_d = 2000.0;
  p.mr = 0.1;
  core::EstimatorConfig cfg;
  const auto key_for = [&](std::uint64_t digest) {
    cfg.environment_digest = digest;
    return eval::make_eval_key(cfg, 0xD16E57ULL, p, 60, 3,
                               core::TimeObjective::TailMakespan,
                               core::CostObjective::CostPerTask);
  };
  const auto base = key_for(0);
  std::set<std::uint64_t> sims = {base.sim};
  for (const auto arch : all_architectures()) {
    const auto key = key_for(
        make_reference_environment(arch, 50, 0.827, 2066.0).digest());
    EXPECT_FALSE(key == base);
    sims.insert(key.sim);
  }
  // Zero digest (pre-seam) plus five architectures: six distinct streams.
  EXPECT_EQ(sims.size(), all_architectures().size() + 1);
}

// ---------------------------------------------------------------------------
// End-to-end cause attribution through the executor.

TEST(EnvExecutor, SpotEvictionsRecordedAsOutOfBid) {
  // Aggressive spot market: short steps and high volatility make windows
  // start mid-run almost surely, so at least one cloud instance must be
  // evicted and attributed as out_of_bid (not timeout).
  SpotMarketDynamics spot;
  spot.volatility = 0.8;
  spot.step_s = 200.0;
  auto cloud = make_tech(10);
  cloud.name = "spotty";
  const Environment env =
      EnvironmentBuilder("spot-heavy")
          .grid(make_osg(10, 0.9, 2066.0))
          .spot(cloud, spot)
          .build();
  ExecutorConfig cfg;
  cfg.environment = env;
  cfg.throughput_deadline = 4.0 * 2066.0;
  cfg.seed = 0x601DULL;
  const Executor executor(cfg);
  const auto bot =
      workload::make_synthetic_bot("b", 60, 2066.0, 300.0, 6000.0, 0xB07ULL);
  strategies::NTDMr p;
  p.n = 0;  // tail tasks escalate straight to the spot pool
  p.timeout_t = 2066.0;
  p.deadline_d = 4.0 * 2066.0;
  p.mr = 0.5;
  const auto trace =
      executor.run(bot, strategies::make_ntdmr_strategy(p), /*stream=*/1);
  std::size_t evicted = 0;
  for (const auto& r : trace.records()) {
    if (r.outcome == trace::InstanceOutcome::OutOfBid) {
      ++evicted;
      EXPECT_EQ(r.pool, trace::PoolKind::Reliable);
    }
  }
  EXPECT_GT(evicted, 0u);
}

TEST(EnvExecutor, RegionBlackoutsRecordedAsBlackout) {
  MultiRegionDynamics dyn;
  dyn.blackouts_per_region = 6;
  dyn.blackout_window_s = 30000.0;
  dyn.blackout_mean_duration_s = 4000.0;
  PoolConfig regions;
  regions.name = "regions";
  for (int r = 0; r < 4; ++r) {
    auto g = make_osg(8, 0.95, 2066.0).groups.front();
    regions.groups.push_back(g);
  }
  const Environment env = EnvironmentBuilder("regional")
                              .multi_region(regions, dyn)
                              .cloud(make_tech(5))
                              .build();
  ExecutorConfig cfg;
  cfg.environment = env;
  cfg.throughput_deadline = 4.0 * 2066.0;
  cfg.seed = 0x601DULL;
  const Executor executor(cfg);
  const auto bot =
      workload::make_synthetic_bot("b", 80, 2066.0, 300.0, 6000.0, 0xB07ULL);
  strategies::NTDMr p;
  p.n = 1;
  p.timeout_t = 2066.0;
  p.deadline_d = 4.0 * 2066.0;
  p.mr = 0.15;
  const auto trace =
      executor.run(bot, strategies::make_ntdmr_strategy(p), /*stream=*/1);
  std::size_t blackouts = 0;
  for (const auto& r : trace.records()) {
    if (r.outcome == trace::InstanceOutcome::Blackout) ++blackouts;
  }
  EXPECT_GT(blackouts, 0u);
}

TEST(EnvBuilder, RolesFollowDynamics) {
  const Environment env = EnvironmentBuilder("mix")
                              .grid(make_osg(4, 0.9, 2066.0))
                              .serverless("FaaS", ServerlessDynamics{})
                              .build();
  ASSERT_EQ(env.pools().size(), 2u);
  EXPECT_EQ(env.pools()[0].role, PoolRole::Grid);
  EXPECT_EQ(env.pools()[1].role, PoolRole::Cloud);
  EXPECT_TRUE(env.has_cloud());
  EXPECT_EQ(env.grid_machines(), 4u);
}

TEST(EnvValidate, RejectsEmptyAndCloudOnlyEnvironments) {
  EXPECT_THROW(Environment("empty", {}).validate(), std::exception);
  // At least one grid machine: the scheduler's tail trigger and Mr cap are
  // defined relative to the grid side.
  EXPECT_THROW(
      Environment("cloud-only", {PoolSpec{PoolRole::Cloud, make_tech(2)}})
          .validate(),
      std::exception);
  EXPECT_NO_THROW(
      Environment("ok", {PoolSpec{PoolRole::Grid, make_osg(2, 0.9, 2066.0)}})
          .validate());
}

}  // namespace
}  // namespace expert::gridsim::env
