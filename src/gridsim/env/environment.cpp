#include "expert/gridsim/env/environment.hpp"

#include <algorithm>
#include <cmath>

#include "expert/gridsim/env/dynamics.hpp"
#include "expert/gridsim/presets.hpp"
#include "expert/util/assert.hpp"
#include "expert/util/hash.hpp"

namespace expert::gridsim::env {

namespace {

/// Domain salt for environment content digests, separate from every
/// eval-key salt so an environment digest can never structurally collide
/// with a sim or cache digest.
constexpr std::uint64_t kEnvSalt = 0xE2B180A7C4ULL;

void mix_group(util::HashState& h, const MachineGroup& g) {
  h.mix(static_cast<std::uint64_t>(g.count))
      .mix(g.speed_mean)
      .mix(g.speed_cv)
      .mix(g.availability.mean_up_seconds)
      .mix(g.availability.mean_down_seconds)
      .mix(g.availability.up_shape)
      .mix(g.availability_cv)
      .mix(g.price.rate_cents_per_s)
      .mix(g.price.period_s)
      .mix(g.failure_notice_prob)
      .mix(g.mean_queue_wait_s)
      // The word a group's availability-trace flag took: dropping it would
      // move every digest, and with it the eval RNG streams of every
      // non-classic architecture.
      .mix(false);
}

void mix_dynamics(util::HashState& h, const Dynamics& dynamics) {
  h.mix(std::string_view(dynamics_kind_name(dynamics)));
  if (const auto* spot = std::get_if<SpotMarketDynamics>(&dynamics)) {
    h.mix(spot->initial_rate_cents_per_s)
        .mix(spot->bid_cents_per_s)
        .mix(spot->volatility)
        .mix(spot->reversion)
        .mix(spot->step_s)
        .mix(spot->seed);
  } else if (const auto* faas = std::get_if<ServerlessDynamics>(&dynamics)) {
    h.mix(static_cast<std::uint64_t>(faas->max_concurrency))
        .mix(faas->cold_start_mean_s)
        .mix(faas->rate_cents_per_s)
        .mix(faas->speed_mean);
  } else if (const auto* mr = std::get_if<MultiRegionDynamics>(&dynamics)) {
    h.mix(static_cast<std::uint64_t>(mr->blackouts_per_region))
        .mix(mr->blackout_window_s)
        .mix(mr->blackout_mean_duration_s)
        .mix(mr->seed);
  } else if (const auto* vol = std::get_if<VolunteerDynamics>(&dynamics)) {
    h.mix(vol->duty_on_mean_s).mix(vol->duty_off_mean_s).mix(vol->seed);
  }
}

void validate_dynamics(const PoolSpec& spec) {
  if (const auto* spot = std::get_if<SpotMarketDynamics>(&spec.dynamics)) {
    EXPERT_REQUIRE(spot->initial_rate_cents_per_s > 0.0,
                   "spot pool needs a positive initial rate");
    EXPERT_REQUIRE(spot->bid_cents_per_s > 0.0,
                   "spot pool needs a positive bid");
    EXPERT_REQUIRE(spot->volatility >= 0.0,
                   "spot volatility must be >= 0");
    EXPERT_REQUIRE(spot->reversion >= 0.0 && spot->reversion <= 1.0,
                   "spot reversion must be in [0,1]");
    EXPERT_REQUIRE(spot->step_s > 0.0, "spot step must be positive");
  } else if (const auto* faas =
                 std::get_if<ServerlessDynamics>(&spec.dynamics)) {
    EXPERT_REQUIRE(faas->max_concurrency > 0,
                   "serverless pool needs max_concurrency > 0");
    EXPERT_REQUIRE(faas->cold_start_mean_s >= 0.0,
                   "serverless cold start must be >= 0");
    EXPERT_REQUIRE(faas->rate_cents_per_s > 0.0,
                   "serverless pool needs a positive rate");
  } else if (const auto* mr =
                 std::get_if<MultiRegionDynamics>(&spec.dynamics)) {
    if (mr->blackouts_per_region > 0) {
      EXPERT_REQUIRE(mr->blackout_window_s > 0.0,
                     "region blackouts need a positive start window");
      EXPERT_REQUIRE(mr->blackout_mean_duration_s > 0.0,
                     "region blackouts need a positive mean duration");
    }
  } else if (const auto* vol =
                 std::get_if<VolunteerDynamics>(&spec.dynamics)) {
    EXPERT_REQUIRE(vol->duty_on_mean_s > 0.0 && vol->duty_off_mean_s > 0.0,
                   "volunteer duty cycle needs positive on/off means");
  }
}

}  // namespace

const char* dynamics_kind_name(const Dynamics& dynamics) noexcept {
  switch (dynamics.index()) {
    case 0:
      return "static";
    case 1:
      return "spot";
    case 2:
      return "serverless";
    case 3:
      return "multiregion";
    case 4:
      return "volunteer";
    default:
      return "static";
  }
}

Environment::Environment(std::string name, std::vector<PoolSpec> pools)
    : name_(std::move(name)), pools_(std::move(pools)) {}

std::size_t Environment::grid_machines() const noexcept {
  std::size_t total = 0;
  for (const auto& spec : pools_)
    if (spec.role == PoolRole::Grid) total += spec.pool.total_machines();
  return total;
}

std::size_t Environment::cloud_machines() const noexcept {
  std::size_t total = 0;
  for (const auto& spec : pools_)
    if (spec.role == PoolRole::Cloud) total += spec.pool.total_machines();
  return total;
}

std::uint64_t Environment::digest() const {
  util::HashState h(kEnvSalt);
  h.mix(static_cast<std::uint64_t>(pools_.size()));
  for (const auto& spec : pools_) {
    h.mix(spec.role == PoolRole::Cloud)
        .mix(std::string_view(spec.pool.name))
        .mix(static_cast<std::uint64_t>(spec.pool.groups.size()));
    for (const auto& g : spec.pool.groups) mix_group(h, g);
    mix_dynamics(h, spec.dynamics);
  }
  return h.digest();
}

void Environment::validate() const {
  EXPERT_REQUIRE(!pools_.empty(), "environment needs at least one pool");
  EXPERT_REQUIRE(grid_machines() > 0,
                 "environment needs at least one grid machine");
  for (const auto& spec : pools_) {
    spec.pool.validate();
    validate_dynamics(spec);
  }
}

Environment Environment::classic(const PoolConfig& unreliable,
                                 const std::optional<PoolConfig>& reliable) {
  std::vector<PoolSpec> pools;
  pools.push_back({PoolRole::Grid, unreliable, StaticDynamics{}});
  if (reliable) pools.push_back({PoolRole::Cloud, *reliable, StaticDynamics{}});
  return Environment("classic", std::move(pools));
}

EnvironmentBuilder& EnvironmentBuilder::grid(PoolConfig pool) {
  pools_.push_back({PoolRole::Grid, std::move(pool), StaticDynamics{}});
  return *this;
}

EnvironmentBuilder& EnvironmentBuilder::cloud(PoolConfig pool) {
  pools_.push_back({PoolRole::Cloud, std::move(pool), StaticDynamics{}});
  return *this;
}

EnvironmentBuilder& EnvironmentBuilder::spot(PoolConfig pool,
                                             SpotMarketDynamics dynamics) {
  pools_.push_back({PoolRole::Cloud, std::move(pool), dynamics});
  return *this;
}

EnvironmentBuilder& EnvironmentBuilder::serverless(
    std::string pool_name, ServerlessDynamics dynamics) {
  pools_.push_back({PoolRole::Cloud,
                    make_serverless_pool(std::move(pool_name), dynamics),
                    dynamics});
  return *this;
}

EnvironmentBuilder& EnvironmentBuilder::multi_region(
    PoolConfig pool, MultiRegionDynamics dynamics) {
  pools_.push_back({PoolRole::Grid, std::move(pool), dynamics});
  return *this;
}

EnvironmentBuilder& EnvironmentBuilder::volunteer(
    PoolConfig pool, VolunteerDynamics dynamics) {
  pools_.push_back({PoolRole::Grid, std::move(pool), dynamics});
  return *this;
}

Environment EnvironmentBuilder::build() {
  Environment env(std::move(name_), std::move(pools_));
  env.validate();
  return env;
}

Architecture parse_architecture(std::string_view text) {
  if (text == "classic") return Architecture::Classic;
  if (text == "spot") return Architecture::Spot;
  if (text == "serverless") return Architecture::Serverless;
  if (text == "multiregion" || text == "multi-region")
    return Architecture::MultiRegion;
  if (text == "volunteer") return Architecture::Volunteer;
  EXPERT_REQUIRE(false, "unknown architecture '" + std::string(text) +
                            "' (expected classic|spot|serverless|"
                            "multiregion|volunteer)");
  return Architecture::Classic;  // unreachable
}

const char* to_string(Architecture arch) noexcept {
  switch (arch) {
    case Architecture::Classic:
      return "classic";
    case Architecture::Spot:
      return "spot";
    case Architecture::Serverless:
      return "serverless";
    case Architecture::MultiRegion:
      return "multiregion";
    case Architecture::Volunteer:
      return "volunteer";
  }
  return "classic";
}

const std::vector<Architecture>& all_architectures() {
  static const std::vector<Architecture> kAll = {
      Architecture::Classic, Architecture::Spot, Architecture::Serverless,
      Architecture::MultiRegion, Architecture::Volunteer};
  return kAll;
}

Environment make_reference_environment(Architecture arch,
                                       std::size_t grid_size,
                                       double target_gamma,
                                       double mean_runtime) {
  EXPERT_REQUIRE(grid_size > 0, "reference environment needs grid machines");
  constexpr std::size_t kCloudSize = 20;
  switch (arch) {
    case Architecture::Classic:
      return Environment::classic(
          make_osg(grid_size, target_gamma, mean_runtime),
          make_tech(kCloudSize));
    case Architecture::Spot: {
      SpotMarketDynamics dyn;
      PoolConfig pool = make_ec2(kCloudSize);
      pool.name = "EC2-spot";
      // Spot instances bill per second at the market rate; the group's
      // static PriceSpec is the market's starting point.
      for (auto& g : pool.groups)
        g.price = PriceSpec{dyn.initial_rate_cents_per_s, 1.0};
      return EnvironmentBuilder("spot")
          .grid(make_osg(grid_size, target_gamma, mean_runtime))
          .spot(std::move(pool), dyn)
          .build();
    }
    case Architecture::Serverless: {
      ServerlessDynamics dyn;
      return EnvironmentBuilder("serverless")
          .grid(make_osg(grid_size, target_gamma, mean_runtime))
          .serverless("FaaS", dyn)
          .build();
    }
    case Architecture::MultiRegion: {
      // Same calibration as the classic grid, split into regions that
      // black out as units.
      constexpr std::size_t kRegions = 4;
      const PoolConfig seed_pool =
          make_osg(grid_size, target_gamma, mean_runtime);
      PoolConfig regional;
      regional.name = "OSG-regions";
      std::size_t remaining = grid_size;
      for (std::size_t r = 0; r < kRegions && remaining > 0; ++r) {
        MachineGroup region = seed_pool.groups.front();
        const std::size_t left = kRegions - r;
        region.count = (remaining + left - 1) / left;
        remaining -= region.count;
        regional.groups.push_back(region);
      }
      MultiRegionDynamics dyn;
      return EnvironmentBuilder("multiregion")
          .multi_region(std::move(regional), dyn)
          .cloud(make_tech(kCloudSize))
          .build();
    }
    case Architecture::Volunteer: {
      PoolConfig pool = make_wm(grid_size, target_gamma, mean_runtime);
      pool.name = "BOINC";
      for (auto& g : pool.groups) {
        // Mobile/volunteer hosts: slower and more heterogeneous than a
        // managed campus pool.
        g.speed_mean *= 0.6;
        g.speed_cv = std::max(g.speed_cv, 0.4);
      }
      VolunteerDynamics dyn;
      return EnvironmentBuilder("volunteer")
          .volunteer(std::move(pool), dyn)
          .cloud(make_tech(kCloudSize))
          .build();
    }
  }
  EXPERT_REQUIRE(false, "unknown architecture");
  return Environment();  // unreachable
}

}  // namespace expert::gridsim::env
