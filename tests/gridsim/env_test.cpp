// Environment-seam tests: the golden refactor guard (classic executions are
// byte-identical to the pre-seam executor), seeded property tests for each
// pool dynamics, content-digest separation across architectures, and
// end-to-end preemption-cause attribution through the executor.

#include "expert/gridsim/env/environment.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <set>
#include <sstream>
#include <utility>

#include "expert/core/expert.hpp"
#include "expert/eval/key.hpp"
#include "expert/gridsim/env/dynamics.hpp"
#include "expert/gridsim/executor.hpp"
#include "expert/gridsim/presets.hpp"
#include "expert/gridsim/scenarios.hpp"
#include "expert/obs/metrics.hpp"
#include "expert/strategies/static_strategies.hpp"
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
// by the runs below: experiment 11, env seed 0x601D, bot seed 0xB07, run
// stream 1; then characterize -> 150-task frontier with 3 repetitions and
// seed 0x601D5EED. A classic environment must keep reproducing them
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

// ---------------------------------------------------------------------------
// Per-architecture golden guard. Trace-CSV digests of every reference
// architecture, with no chaos and with a plan that fires every fault class,
// over three run streams, pinned before the dynamics were generated on
// demand. Spot, region and chaos windows share boundaries across machines,
// so these digests also pin the equal-time order of forced transitions.

constexpr const char* kFullChaosPlan =
    "seed=7 blackouts=2 blackout_window=20000 blackout_duration=3000 "
    "shrink=0.25 shrink_start=9000 shrink_duration=6000 flash=0.2 "
    "flash_start=3000 flash_duration=12000 dispatch_fail=0.1 loss=0.05";

/// ArchGolden's strategy: NTDMr with N=1, T=T_ur, D=4 T_ur, Mr=0.4.
strategies::StrategyConfig arch_ntdmr() {
  strategies::NTDMr p;
  p.n = 1;
  p.timeout_t = 2066.0;
  p.deadline_d = 4.0 * 2066.0;
  p.mr = 0.4;
  return strategies::make_ntdmr_strategy(p);
}

/// The executor config of the architecture goldens: `environment` under
/// chaos `plan` (none when null) with horizon `max_sim_time`.
ExecutorConfig arch_config(const Environment& environment, const char* plan,
                           double max_sim_time = 5.0e7) {
  ExecutorConfig cfg;
  cfg.environment = environment;
  cfg.throughput_deadline = 4.0 * 2066.0;
  cfg.seed = 0xA4C11ULL;
  cfg.max_sim_time = max_sim_time;
  if (plan != nullptr) cfg.chaos = chaos::parse_chaos_plan(plan);
  return cfg;
}

/// The goldens' 200-task BoT. Fitting the task-time distribution dominates
/// a run's cost, so it is drawn once for every case.
const workload::Bot& arch_bot() {
  static const workload::Bot bot = workload::make_synthetic_bot(
      "arch", 200, 2066.0, 300.0, 6000.0, 0xB07ULL);
  return bot;
}

/// Trace digest of arch_bot() run with `strategy` under arch_config().
std::uint64_t arch_trace_digest(
    const Environment& environment, const char* plan, std::uint64_t stream,
    double max_sim_time = 5.0e7,
    const strategies::StrategyConfig& strategy = arch_ntdmr()) {
  const Executor executor(arch_config(environment, plan, max_sim_time));
  const auto trace = executor.run(arch_bot(), strategy, stream);
  std::ostringstream csv;
  trace::write_csv(trace, csv);
  return util::HashState(0xA4C11ULL).mix(csv.str()).digest();
}

/// Digests for streams 1..3 without chaos, then streams 1..3 with
/// kFullChaosPlan.
void expect_arch_digests(Architecture arch,
                         const std::array<std::uint64_t, 6>& golden) {
  const Environment environment =
      make_reference_environment(arch, 40, 0.827, 2066.0);
  for (std::size_t i = 0; i < golden.size(); ++i) {
    const bool with_chaos = i >= 3;
    const std::uint64_t stream = i % 3 + 1;
    EXPECT_EQ(arch_trace_digest(environment,
                                with_chaos ? kFullChaosPlan : nullptr, stream),
              golden[i])
        << to_string(arch) << (with_chaos ? " with chaos" : " without chaos")
        << ", stream " << stream;
  }
}

TEST(ArchGolden, Classic) {
  expect_arch_digests(
      Architecture::Classic,
      {0x65c9f3fb25ee8ed9ULL, 0x4ed2447b51cf8eaeULL, 0xe52e06fa3493bd26ULL,
       0xb0f2ee9d65b58e92ULL, 0x732afe8a80952fc3ULL, 0x68d3747a476c11c7ULL});
}

TEST(ArchGolden, Spot) {
  expect_arch_digests(
      Architecture::Spot,
      {0xef8ac1321ab2bcd6ULL, 0x565d4f9f28005f7fULL, 0x911a1804268e6560ULL,
       0xc61104ae4dd84e44ULL, 0xa63498098fe9dc08ULL, 0x21fc3e810ec2f960ULL});
}

TEST(ArchGolden, Serverless) {
  expect_arch_digests(
      Architecture::Serverless,
      {0x218e999191d27bfULL, 0x169bd23136673644ULL, 0xfa3c349c5428ce1dULL,
       0x4e747a801b981899ULL, 0x29be90d836edbbbbULL, 0x728c17ace91918f1ULL});
}

TEST(ArchGolden, MultiRegion) {
  expect_arch_digests(
      Architecture::MultiRegion,
      {0xe09d42a9c520d0baULL, 0xe941d608a97cff40ULL, 0x4fff7a5205f4bebfULL,
       0x25e41fbb4bf36cdULL, 0x86a9494700acbf3ULL, 0x335f73c811b739b0ULL});
}

TEST(ArchGolden, Volunteer) {
  expect_arch_digests(
      Architecture::Volunteer,
      {0x436b077e9b390e75ULL, 0x7f15c6bf22e33610ULL, 0xd71fc6c1ecf2b854ULL,
       0x2d237a20e1970765ULL, 0x72492758377e8360ULL, 0xedba7e54d1031fabULL});
}

TEST(ArchGolden, StreamsMergedWithChaosAndCutAtTheHorizon) {
  // A spot pool in the grid role and a fast volunteer cycle put dynamics
  // windows on the same machines as chaos blackouts, shrink and flash
  // windows; a 15,000 s horizon truncates runs inside long windows. Each
  // digest covers streams 1..5.
  SpotMarketDynamics spot;
  spot.volatility = 0.8;
  const Environment spot_grid(
      "spot-grid", {PoolSpec{PoolRole::Grid, make_osg(20, 0.85, 2066.0), spot},
                    PoolSpec{PoolRole::Cloud, make_tech(10)}});
  VolunteerDynamics fast;
  fast.duty_on_mean_s = 1800.0;
  fast.duty_off_mean_s = 900.0;
  const Environment volunteer_fast(
      "volunteer-fast",
      {PoolSpec{PoolRole::Grid, make_wm(20, 0.85, 2066.0), fast},
       PoolSpec{PoolRole::Cloud, make_tech(10)}});
  constexpr const char* kFlashAtZero =
      "seed=9 flash=0.3 flash_start=0 flash_duration=8000 shrink=0.5 "
      "shrink_start=1800 shrink_duration=900";
  constexpr const char* kEndlessShrink =
      "seed=11 blackouts=4 blackout_window=40000 blackout_duration=6000 "
      "shrink=0.3 shrink_start=2700 shrink_duration=1e9";
  struct Case {
    const Environment* environment;
    const char* plan;
    double max_sim_time;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {&spot_grid, kFullChaosPlan, 5.0e7, 0x4de1d93c71959ff6ULL},
      {&spot_grid, kEndlessShrink, 15000.0, 0x1a048e4024c5b1dfULL},
      {&volunteer_fast, kFlashAtZero, 5.0e7, 0x000018248401b3f6ULL},
      {&volunteer_fast, kEndlessShrink, 15000.0, 0xf4982c09ac8d4c41ULL},
  };
  for (const auto& c : cases) {
    util::HashState h(0xA4C11ULL);
    for (std::uint64_t stream = 1; stream <= 5; ++stream) {
      h.mix(arch_trace_digest(*c.environment, c.plan, stream,
                              c.max_sim_time));
    }
    EXPECT_EQ(h.digest(), c.digest)
        << c.environment->name() << ", " << c.plan << ", horizon "
        << c.max_sim_time;
  }
}

// ---------------------------------------------------------------------------
// Dispatch differential, pinned before dispatch indexed its idle machines.
// Each cell combines the trace digests of streams 1..20. Besides NTDMr, an
// environment with a cloud runs CN-inf (the grid overflows to the cloud)
// and AR (cloud only), which drive the reliable pool's cursor and its
// busy count through every cap.

enum class DiffStrategy { NTDMr, CNInf, AR };

strategies::StrategyConfig diff_strategy(DiffStrategy s) {
  switch (s) {
    case DiffStrategy::CNInf:
      return strategies::make_static_strategy(
          strategies::StaticStrategyKind::CNInf, 2066.0, 0.4);
    case DiffStrategy::AR:
      return strategies::make_static_strategy(
          strategies::StaticStrategyKind::AR, 2066.0, 0.4);
    case DiffStrategy::NTDMr:
      break;
  }
  return arch_ntdmr();
}

/// Cells in order: {50, 200 grid hosts} x {no chaos, kFullChaosPlan} x
/// {NTDMr, CN-inf, AR}.
void expect_dispatch_digests(Architecture arch,
                             const std::array<std::uint64_t, 12>& golden) {
  std::size_t cell = 0;
  for (const std::size_t hosts : {std::size_t{50}, std::size_t{200}}) {
    const Environment environment =
        make_reference_environment(arch, hosts, 0.827, 2066.0);
    for (const char* plan : {static_cast<const char*>(nullptr),
                             kFullChaosPlan}) {
      for (const auto s :
           {DiffStrategy::NTDMr, DiffStrategy::CNInf, DiffStrategy::AR}) {
        const std::size_t at = cell++;
        if (s != DiffStrategy::NTDMr && !environment.has_cloud()) continue;
        const auto strategy = diff_strategy(s);
        util::HashState h(0xD15Cu);
        for (std::uint64_t stream = 1; stream <= 20; ++stream) {
          h.mix(arch_trace_digest(environment, plan, stream, 5.0e7,
                                  strategy));
        }
        EXPECT_EQ(h.digest(), golden[at])
            << to_string(arch) << ", " << hosts << " hosts, "
            << (plan != nullptr ? "full chaos" : "no chaos") << ", "
            << strategy.name << " (cell " << at << ")";
      }
    }
  }
}

TEST(DispatchDifferential, Classic) {
  expect_dispatch_digests(
      Architecture::Classic,
      {0x1f663017fa972318ULL, 0x30e54fa79e47c6b0ULL, 0xb2ea2733836f7f49ULL,
       0x4d1b76602483d3bfULL, 0xb153e9184f6a4a34ULL, 0x38266e25243a699fULL,
       0x4201d67848334045ULL, 0x91e02420916e8f0eULL, 0x978abf6c52050507ULL,
       0x68c017a4220d8243ULL, 0x8680a7250b2bfcbdULL, 0xa779b54d3b877bffULL});
}

TEST(DispatchDifferential, Spot) {
  expect_dispatch_digests(
      Architecture::Spot,
      {0x7c382396040c096bULL, 0x189a340ab49dd1a9ULL, 0xf3465c80caa264f3ULL,
       0x13174875c2238cecULL, 0x34f9153ea582f09fULL, 0xecf3a979d14abb45ULL,
       0x631707d1ca056b3cULL, 0x4c9c9023817f6191ULL, 0xf64168b9cb8fcd67ULL,
       0x71dfeafd30229999ULL, 0x85a2255ec1d87fb3ULL, 0x576e459a9b4147fbULL});
}

TEST(DispatchDifferential, Serverless) {
  expect_dispatch_digests(
      Architecture::Serverless,
      {0x4a11c70b1279b8d1ULL, 0x90dd22f06e24a257ULL, 0xeaafef86eaef4020ULL,
       0x64a22a1f83d6b5f3ULL, 0xcdbe092727712b56ULL, 0x90fd5e97f8d4b557ULL,
       0x29f049ca8a9ac815ULL, 0x5fa2b0209c17f3fdULL, 0x50d0c450ccff2715ULL,
       0x3fe29bfc1d7fcd58ULL, 0xb0653138374928a1ULL, 0xcbde965403dff73fULL});
}

TEST(DispatchDifferential, MultiRegion) {
  expect_dispatch_digests(
      Architecture::MultiRegion,
      {0x2b0df8fcd9d44d22ULL, 0x65132d518ccd6dcbULL, 0xb2ea2733836f7f49ULL,
       0xc74cbc8264cf2f36ULL, 0x0a4edf04f9fceed3ULL, 0x38266e25243a699fULL,
       0xf3b248460285b063ULL, 0x6d944f975fff2a97ULL, 0x978abf6c52050507ULL,
       0xc984091690930d89ULL, 0xe40425fb6a1232d7ULL, 0xa779b54d3b877bffULL});
}

TEST(DispatchDifferential, Volunteer) {
  expect_dispatch_digests(
      Architecture::Volunteer,
      {0x2c20db609c37f5f9ULL, 0xed345decd5c41c7fULL, 0xb2ea2733836f7f49ULL,
       0xba906047b2b4dec9ULL, 0x9937dfa173ce531aULL, 0x38266e25243a699fULL,
       0xc3a2774bd7f84c33ULL, 0x848a8785bb7b4753ULL, 0x978abf6c52050507ULL,
       0xa418667d7cc2e84cULL, 0x0f9295eacc51cd23ULL, 0xa779b54d3b877bffULL});
}

// ---------------------------------------------------------------------------
// Tail-policy pins, taken before the replication policy was shared with the
// Estimator. The goldens above run NTDMr, CN-inf and AR; these cells run
// the tails they leave out: TRR (N=0, T=0), TR (N=0, T=D), AUR (N=inf),
// Budget with a budget the trigger reaches mid-tail, and CN1T0 (overflow
// plus one unreliable and one reliable tail instance). Each cell combines
// the trace digests of streams 1..5.

enum class TailStrategy { TRR, TR, AUR, Budget, CN1T0 };

/// Budget in cents that the trigger reaches mid-tail: the grid spend of
/// a 200-task BoT plus a cloud replication of its last ~15 tasks. Spot
/// instances bill at the market rate, a fraction of on-demand.
double mid_tail_budget(Architecture arch) {
  return arch == Architecture::Spot ? 200.0 : 450.0;
}

strategies::StrategyConfig tail_strategy(TailStrategy s,
                                         double budget_cents = 450.0) {
  using strategies::StaticStrategyKind;
  const auto make = [budget_cents](StaticStrategyKind kind) {
    return strategies::make_static_strategy(kind, 2066.0, 0.4, budget_cents);
  };
  switch (s) {
    case TailStrategy::TRR:
      return make(StaticStrategyKind::TRR);
    case TailStrategy::TR:
      return make(StaticStrategyKind::TR);
    case TailStrategy::AUR:
      return make(StaticStrategyKind::AUR);
    case TailStrategy::Budget:
      return make(StaticStrategyKind::Budget);
    case TailStrategy::CN1T0:
      break;
  }
  return make(StaticStrategyKind::CN1T0);
}

/// Cells in order: {no chaos, kFullChaosPlan} x {TRR, TR, AUR, Budget,
/// CN1T0}; strategies that need a cloud skip environments without one.
void expect_tail_digests(Architecture arch,
                         const std::array<std::uint64_t, 10>& golden) {
  const Environment environment =
      make_reference_environment(arch, 40, 0.827, 2066.0);
  std::size_t cell = 0;
  for (const char* plan :
       {static_cast<const char*>(nullptr), kFullChaosPlan}) {
    for (const auto s : {TailStrategy::TRR, TailStrategy::TR,
                         TailStrategy::AUR, TailStrategy::Budget,
                         TailStrategy::CN1T0}) {
      const std::size_t at = cell++;
      if (s != TailStrategy::AUR && !environment.has_cloud()) continue;
      const auto strategy = tail_strategy(s, mid_tail_budget(arch));
      util::HashState h(0x7A11u);
      for (std::uint64_t stream = 1; stream <= 5; ++stream) {
        h.mix(arch_trace_digest(environment, plan, stream, 5.0e7, strategy));
      }
      EXPECT_EQ(h.digest(), golden[at])
          << to_string(arch) << ", "
          << (plan != nullptr ? "full chaos" : "no chaos") << ", "
          << strategy.name << " (cell " << at << ")";
    }
  }
}

TEST(TailPolicyGolden, Classic) {
  expect_tail_digests(
      Architecture::Classic,
      {0x5b904a00d96667dcULL, 0x93e7eb370d8ca8a7ULL, 0x7de46c1881aa4497ULL,
       0x5f9534d2af3a621eULL, 0x745ef89c42ff1737ULL, 0x869521e0c591dc14ULL,
       0xb11d90a04e38b695ULL, 0xa8db66f61b44886aULL, 0x366185c9d37c47beULL,
       0x577e32e32da4c427ULL});
}

TEST(TailPolicyGolden, Spot) {
  expect_tail_digests(
      Architecture::Spot,
      {0xddd25ca1dd2e11b3ULL, 0xc35654522c6ff646ULL, 0xa6dc8d193ca1aab9ULL,
       0xd81d609167ec46aeULL, 0xbef611556102d139ULL, 0x3c94e07361519096ULL,
       0x111bce357953d323ULL, 0x622a18bfe83c5082ULL, 0x414a82d5be286737ULL,
       0x78bfe2f593ce77d6ULL});
}

TEST(TailPolicyGolden, Serverless) {
  expect_tail_digests(
      Architecture::Serverless,
      {0xeb2f30456eda3bcdULL, 0x5a08de95cf098eefULL, 0x58b3d7b9ec550ab0ULL,
       0x5d30314a07430c7aULL, 0x7b4e6681b85d133eULL, 0xc1ce869b8d913ccdULL,
       0x952464f5a289fa8dULL, 0x21d90ec1f8c35fcdULL, 0x286a075f987e0716ULL,
       0xf0b6fecc6ddf17e9ULL});
}

TEST(TailPolicyGolden, MultiRegion) {
  expect_tail_digests(
      Architecture::MultiRegion,
      {0x3d295806116c03efULL, 0x7007b4a7dad9c327ULL, 0x941d278972684118ULL,
       0xd903b905d593b1e2ULL, 0x08b3fc632fc45bdaULL, 0x05d1b2b342826f9dULL,
       0xdf2bf3e730f768b1ULL, 0xffac4d6e8123a497ULL, 0x83c502a1727b8cb9ULL,
       0xc155c5d4c2af79cfULL});
}

TEST(TailPolicyGolden, Volunteer) {
  expect_tail_digests(
      Architecture::Volunteer,
      {0x1e51c59933a791e1ULL, 0x7817a83140349a59ULL, 0x6599e31f5782627fULL,
       0xf28a13d76e7ff302ULL, 0x944e70d75a5eaf8aULL, 0x06983355ead9110fULL,
       0x8d686c60926b0699ULL, 0x06edf82e1301546aULL, 0x55721001b1b5c64eULL,
       0x8081a8c0fc7e1cf6ULL});
}

TEST(TailPolicyGolden, BudgetFiresMidTail) {
  // The pinned Budget cells exercise the trigger only if it fires after
  // T_tail: the first cloud instance goes out strictly inside the tail.
  for (const auto arch : {Architecture::Classic, Architecture::Spot,
                          Architecture::Serverless, Architecture::MultiRegion,
                          Architecture::Volunteer}) {
    const Executor executor(arch_config(
        make_reference_environment(arch, 40, 0.827, 2066.0), nullptr));
    for (std::uint64_t stream = 1; stream <= 5; ++stream) {
      const auto tr = executor.run(
          arch_bot(),
          tail_strategy(TailStrategy::Budget, mid_tail_budget(arch)), stream);
      double first_reliable = std::numeric_limits<double>::infinity();
      for (const auto& r : tr.records()) {
        if (r.pool == trace::PoolKind::Reliable) {
          first_reliable = std::min(first_reliable, r.send_time);
        }
      }
      EXPECT_GT(first_reliable, tr.t_tail())
          << to_string(arch) << ", stream " << stream;
      EXPECT_LT(first_reliable, tr.makespan())
          << to_string(arch) << ", stream " << stream;
    }
  }
}

/// run_adaptive: AUR (Mr = 0) through the throughput phase, then a fixed
/// selector installs TRR at T_tail, which lifts the reliable cap from 0 and
/// sends every remaining task to the cloud.
TEST(TailPolicyGolden, SelectorInstallsTRRAtTheTail) {
  const Environment environment =
      make_reference_environment(Architecture::Classic, 40, 0.827, 2066.0);
  const std::uint64_t golden[] = {0x53dfb12fd001a5cbULL,
                                  0xd94176dda4a9350bULL};
  std::size_t at = 0;
  for (const char* plan :
       {static_cast<const char*>(nullptr), kFullChaosPlan}) {
    const Executor executor(arch_config(environment, plan));
    std::size_t calls = 0;
    const Executor::TailStrategySelector selector =
        [&calls](const trace::ExecutionTrace&) {
          ++calls;
          return tail_strategy(TailStrategy::TRR);
        };
    util::HashState h(0x5E1Eu);
    for (std::uint64_t stream = 1; stream <= 5; ++stream) {
      const auto tr = executor.run_adaptive(
          arch_bot(), tail_strategy(TailStrategy::AUR), selector, stream);
      EXPECT_GT(tr.reliable_instances_sent(), 0u) << "stream " << stream;
      std::ostringstream csv;
      trace::write_csv(tr, csv);
      h.mix(csv.str());
    }
    EXPECT_EQ(calls, 5u);
    EXPECT_EQ(h.digest(), golden[at++])
        << (plan != nullptr ? "full chaos" : "no chaos");
  }
}

// The generators themselves, pinned at two horizons each: a short one a
// BoT reaches and the executor's full 5e7 s default.

std::uint64_t windows_digest(const std::vector<chaos::ForcedWindow>& windows) {
  util::HashState h(0xD1A6ULL);
  h.mix(static_cast<std::uint64_t>(windows.size()));
  for (const auto& w : windows) {
    h.mix(w.start).mix(w.end).mix(static_cast<std::uint64_t>(w.cause));
  }
  return h.digest();
}

std::uint64_t path_digest(const std::vector<PricePoint>& path) {
  util::HashState h(0xD1A6ULL);
  h.mix(static_cast<std::uint64_t>(path.size()));
  for (const auto& p : path) h.mix(p.time).mix(p.rate_cents_per_s);
  return h.digest();
}

/// A spot spec whose step does not divide its horizons, so window ends
/// are clipped and step boundaries carry rounding.
SpotMarketDynamics fractional_step_spot() {
  SpotMarketDynamics spec;
  spec.volatility = 0.6;
  spec.step_s = 437.3;
  return spec;
}

TEST(DynamicsGolden, SpotPricePath) {
  EXPECT_EQ(path_digest(spot_price_path(SpotMarketDynamics{}, 1.0e5, 3)),
            0x4f2cfd7e7b235714ULL);
  EXPECT_EQ(path_digest(spot_price_path(SpotMarketDynamics{}, 5.0e7, 3)),
            0x1bc66990eb5305deULL);
  EXPECT_EQ(path_digest(spot_price_path(fractional_step_spot(), 123456.7, 3)),
            0x188b5ecaafb38f26ULL);
}

TEST(DynamicsGolden, SpotOutOfBidWindows) {
  EXPECT_EQ(
      windows_digest(spot_out_of_bid_windows(SpotMarketDynamics{}, 1.0e5, 3)),
      0x8399ff4a1eda83eeULL);
  EXPECT_EQ(
      windows_digest(spot_out_of_bid_windows(SpotMarketDynamics{}, 5.0e7, 3)),
      0x7ae2ca3008a436daULL);
  EXPECT_EQ(windows_digest(
                spot_out_of_bid_windows(fractional_step_spot(), 123456.7, 3)),
            0xc478a650f63abb45ULL);
  EXPECT_EQ(windows_digest(
                spot_out_of_bid_windows(fractional_step_spot(), 5.0e7, 3)),
            0xe64966826d7aab84ULL);
}

TEST(DynamicsGolden, VolunteerOffWindows) {
  const VolunteerDynamics spec;
  EXPECT_EQ(windows_digest(volunteer_off_windows(spec, 1.0e5, 0, 3)),
            0x29cc3200d6e6665cULL);
  EXPECT_EQ(windows_digest(volunteer_off_windows(spec, 5.0e7, 0, 3)),
            0x7a59f413710fd0afULL);
  EXPECT_EQ(windows_digest(volunteer_off_windows(spec, 1.0e5, 17, 3)),
            0x4b3a729dac5e3e0aULL);
  EXPECT_EQ(windows_digest(volunteer_off_windows(spec, 5.0e7, 17, 3)),
            0x74a5d1ad402535eaULL);
}

// ---------------------------------------------------------------------------
// Resumable streams: advanced in small, irregular steps, each stream yields
// exactly the points and windows of one drain to the same horizon.

constexpr double kHorizons[] = {1.0e4, 123456.7, 2.0e6, 5.0e7};

bool same_window(const chaos::ForcedWindow& a, const chaos::ForcedWindow& b) {
  return a.start == b.start && a.end == b.end && a.cause == b.cause;
}

TEST(DynamicsStreams, SpotStreamInIrregularStepsMatchesOneDrain) {
  for (const auto& spec : {SpotMarketDynamics{}, fractional_step_spot()}) {
    for (const double horizon : kHorizons) {
      SCOPED_TRACE(testing::Message() << "step " << spec.step_s
                                      << ", horizon " << horizon);
      const auto path = spot_price_path(spec, horizon, 3);
      const auto windows = spot_out_of_bid_windows(spec, horizon, 3);
      SpotMarketStream market(spec, horizon, 3);
      util::Rng steps(0x57E9ULL);
      std::size_t next_window = 0;
      std::size_t checked_points = 0;
      for (double t = 0.0; t < horizon;
           t += steps.exponential(40.0 / horizon)) {
        EXPECT_EQ(market.rate_at(t), spot_rate_at(path, t)) << "t " << t;
        while (next_window < windows.size() &&
               windows[next_window].start <= t) {
          const chaos::ForcedWindow* w = market.window(next_window);
          ASSERT_NE(w, nullptr) << "window " << next_window;
          EXPECT_TRUE(same_window(*w, windows[next_window]))
              << "window " << next_window;
          ++next_window;
        }
        const auto& drawn = market.path();
        ASSERT_LE(drawn.size(), path.size());
        for (; checked_points < drawn.size(); ++checked_points) {
          EXPECT_EQ(drawn[checked_points].time, path[checked_points].time);
          EXPECT_EQ(drawn[checked_points].rate_cents_per_s,
                    path[checked_points].rate_cents_per_s);
        }
      }
      for (; next_window < windows.size(); ++next_window) {
        const chaos::ForcedWindow* w = market.window(next_window);
        ASSERT_NE(w, nullptr);
        EXPECT_TRUE(same_window(*w, windows[next_window]));
      }
      EXPECT_EQ(market.window(windows.size()), nullptr);
      while (market.draw_point()) {
      }
      EXPECT_EQ(market.path().size(), path.size());
    }
  }
}

TEST(DynamicsStreams, DutyCycleStreamInIrregularStepsMatchesOneDrain) {
  const VolunteerDynamics spec;
  for (const double horizon : kHorizons) {
    for (const std::uint64_t host : {0ULL, 5ULL, 17ULL}) {
      SCOPED_TRACE(testing::Message() << "host " << host << ", horizon "
                                      << horizon);
      const auto windows = volunteer_off_windows(spec, horizon, host, 3);
      DutyCycleStream cycle(spec, horizon, host, 3);
      util::Rng steps(0x57E9ULL + host);
      std::size_t asked = 0;
      while (asked < windows.size()) {
        // Ask ahead by 1-4 windows, then re-read an earlier one: windows
        // already drawn must not move.
        asked = std::min<std::size_t>(windows.size(),
                                      asked + 1 + steps.below(4));
        const chaos::ForcedWindow* last = cycle.window(asked - 1);
        ASSERT_NE(last, nullptr);
        EXPECT_TRUE(same_window(*last, windows[asked - 1]));
        const std::size_t back = steps.below(asked);
        EXPECT_TRUE(same_window(*cycle.window(back), windows[back]));
      }
      EXPECT_EQ(cycle.window(windows.size()), nullptr);
    }
  }
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

// Golden digests: the eval layer keys every non-classic evaluation's RNG
// stream by Environment::digest(), so a change to what it mixes moves every
// such result. Pinned from the parent of the availability-trace deletion.
TEST(EnvironmentDigest, Golden) {
  const std::array<std::pair<Architecture, std::uint64_t>, 5> golden = {{
      {Architecture::Classic, 0x2878763de0b4e588ULL},
      {Architecture::Spot, 0xddfaa7de295b875dULL},
      {Architecture::Serverless, 0xa6d239ca2ae5cd4dULL},
      {Architecture::MultiRegion, 0x4f02df9d2d7fd7b0ULL},
      {Architecture::Volunteer, 0x5a9448d0783bae40ULL},
  }};
  for (const auto& [arch, digest] : golden) {
    EXPECT_EQ(make_reference_environment(arch, 50, 0.827, 2066.0).digest(),
              digest)
        << to_string(arch);
  }

  // A classic environment whose machine group sets every field away from
  // its default.
  MachineGroup g;
  g.count = 7;
  g.speed_mean = 1.25;
  g.speed_cv = 0.3;
  g.availability = stats::AvailabilityModel{5000.0, 700.0, 0.6};
  g.availability_cv = 0.4;
  g.price = PriceSpec{0.002, 3600.0};
  g.failure_notice_prob = 0.35;
  g.mean_queue_wait_s = 120.0;
  PoolConfig grid;
  grid.name = "every-field";
  grid.groups = {g};
  EXPECT_EQ(Environment::classic(grid, make_tech(3)).digest(),
            0x599851e0c7f25475ULL);
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

/// Run a 120-task BoT on `environment` with metrics on; return the trace
/// and the run's gridsim.dynamics.forced_windows total.
std::pair<trace::ExecutionTrace, std::uint64_t> run_counting_windows(
    const Environment& environment, std::uint64_t stream) {
  ExecutorConfig cfg;
  cfg.environment = environment;
  cfg.throughput_deadline = 4.0 * 2066.0;
  cfg.seed = 0xC0047ULL;
  const Executor executor(cfg);
  const auto bot =
      workload::make_synthetic_bot("b", 120, 2066.0, 300.0, 6000.0, 0xB07ULL);
  strategies::NTDMr p;
  p.n = 1;
  p.timeout_t = 2066.0;
  p.deadline_d = 4.0 * 2066.0;
  p.mr = 0.4;
  obs::Registry& reg = obs::Registry::global();
  reg.set_enabled(true);
  reg.reset();
  auto trace = executor.run(bot, strategies::make_ntdmr_strategy(p), stream);
  const std::uint64_t windows =
      reg.snapshot().counter_total("gridsim.dynamics.forced_windows");
  reg.set_enabled(false);
  return {std::move(trace), windows};
}

TEST(EnvExecutor, ForcedWindowsCountOnlyWindowsTheRunReached) {
  // A volunteer run counts the duty-cycle windows that start before it
  // ended — one drain of each host's cycle to the run's end — not the
  // executor's whole max_sim_time horizon.
  const Environment volunteer =
      make_reference_environment(Architecture::Volunteer, 30, 0.827, 2066.0);
  const auto& pool = volunteer.pools().front();
  const auto& spec = std::get<VolunteerDynamics>(pool.dynamics);
  const auto [trace, counted] = run_counting_windows(volunteer, 2);
  ASSERT_FALSE(trace.truncated());
  std::uint64_t expected = 0;
  for (std::size_t host = 0; host < pool.pool.total_machines(); ++host) {
    for (const auto& w :
         volunteer_off_windows(spec, trace.makespan(), host, 2)) {
      if (w.start < trace.makespan()) ++expected;
    }
  }
  EXPECT_GT(expected, 0u);
  EXPECT_EQ(counted, expected);

  // Spot: one price path per pool, counted once.
  const Environment spot =
      make_reference_environment(Architecture::Spot, 30, 0.827, 2066.0);
  const auto& market =
      std::get<SpotMarketDynamics>(spot.pools().back().dynamics);
  const auto [spot_trace, spot_counted] = run_counting_windows(spot, 2);
  EXPECT_EQ(spot_counted,
            spot_out_of_bid_windows(market, spot_trace.makespan(), 2).size());
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
