#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "expert/gridsim/pool.hpp"

namespace expert::gridsim::env {

/// Which side of the two-queue scheduler a pool serves. Grid pools feed the
/// unreliable queue (they define l_ur, the Mr cap base and the tail
/// trigger); Cloud pools feed the reliable queue (deadline-free (N+1)-th
/// instances, Mr-capped concurrency). The paper's {unreliable, reliable}
/// pair is the special case of one pool per role.
enum class PoolRole { Grid, Cloud };

/// No per-pool dynamics: the pool behaves exactly as its MachineGroups
/// say, byte-identical to the pre-seam two-pool executor.
struct StaticDynamics {};

/// Spot-market cloud pool: the whole pool shares one deterministic seeded
/// price process, and every running instance is evicted when the market
/// price rises above `bid_cents_per_s` (recorded as the OutOfBid
/// preemption cause). The price path is a mean-reverting log-excursion
///
///   rate(t) = initial * exp(volatility * x_k),
///   x_{k+1} = (1 - reversion) * x_k + z_k,   z_k ~ N(0, 1)
///
/// piecewise constant per `step_s`. The shocks z_k do not depend on
/// `volatility`, so the out-of-bid set grows monotonically with
/// volatility for a fixed seed — the property the dynamics tests pin.
/// Successful instances are charged the market rate at their send time.
struct SpotMarketDynamics {
  double initial_rate_cents_per_s = 0.35 * 34.0 / 3600.0;
  double bid_cents_per_s = 0.70 * 34.0 / 3600.0;
  double volatility = 0.35;  ///< log-amplitude of the excursion path
  double reversion = 0.05;   ///< AR(1) pull toward the initial rate, [0,1]
  double step_s = 900.0;     ///< price-process step (piecewise constant)
  std::uint64_t seed = 0x5B0717ULL;  ///< price-process stream root
};

/// Serverless burst cloud pool: an elastic fleet of `max_concurrency`
/// always-available slots, each dispatch paying an exponential cold-start
/// latency (reusing the batch-queue-wait machinery) and billed per
/// millisecond (PriceSpec.period_s = 0.001) at a premium rate. Cold-start
/// time is not billed, matching FaaS billing that meters execution only.
struct ServerlessDynamics {
  std::size_t max_concurrency = 64;
  double cold_start_mean_s = 3.0;
  double rate_cents_per_s = 2.5 * 34.0 / 3600.0;
  double speed_mean = 1.0;
};

/// Multi-region grid pool: each MachineGroup is one region, and regions
/// black out as a unit — the same correlated group-blackout process the
/// chaos layer injects, here a *property of the environment* rather than a
/// fault plan. Windows are deterministic in (seed, run stream, region) and
/// losses they cause carry the Blackout preemption cause.
struct MultiRegionDynamics {
  std::size_t blackouts_per_region = 2;
  double blackout_window_s = 20000.0;  ///< starts uniform in [0, window)
  double blackout_mean_duration_s = 2500.0;
  std::uint64_t seed = 0xB1AC0ULL;
};

/// Volunteer/mobile grid pool: hosts follow a battery-shaped duty cycle —
/// exponential "discharge" (on) periods with mean `duty_on_mean_s`
/// alternating with exponential "recharge" (off) periods with mean
/// `duty_off_mean_s`, layered on top of the group's own
/// stats::AvailabilityModel. Each host draws its own phase-shifted cycle
/// from (seed, run stream, host ordinal); the long-run duty availability
/// is on / (on + off).
struct VolunteerDynamics {
  double duty_on_mean_s = 4.0 * 3600.0;
  double duty_off_mean_s = 2.0 * 3600.0;
  std::uint64_t seed = 0xD077EE12ULL;
};

using Dynamics = std::variant<StaticDynamics, SpotMarketDynamics,
                              ServerlessDynamics, MultiRegionDynamics,
                              VolunteerDynamics>;

/// Stable name of the dynamics alternative ("static", "spot", ...), used
/// in digests, docs and obs labels.
const char* dynamics_kind_name(const Dynamics& dynamics) noexcept;

/// One pool of an environment: scheduling role, machine description and
/// the dynamics process layered on top.
struct PoolSpec {
  PoolRole role = PoolRole::Grid;
  PoolConfig pool;
  Dynamics dynamics = StaticDynamics{};

  const std::string& name() const noexcept { return pool.name; }
};

/// A named, content-digestable description of the resource mix a BoT runs
/// on: N pools, each with a role and per-pool dynamics. It is the
/// executor's only pool input (`ExecutorConfig::environment`); the paper's
/// grid + cloud pair is the `classic()` environment.
class Environment {
 public:
  Environment() = default;
  Environment(std::string name, std::vector<PoolSpec> pools);

  const std::string& name() const noexcept { return name_; }
  const std::vector<PoolSpec>& pools() const noexcept { return pools_; }

  std::size_t grid_machines() const noexcept;
  std::size_t cloud_machines() const noexcept;
  bool has_cloud() const noexcept { return cloud_machines() > 0; }

  /// Content digest over every pool's role, machine groups and dynamics
  /// parameters (the environment *name* is deliberately excluded: two
  /// identically-shaped environments are the same evaluation context no
  /// matter what they are called). Mixed into eval::EvalKey via
  /// core::EstimatorConfig::environment_digest so cached evaluations can
  /// never collide across architectures — identical pools under different
  /// dynamics digest differently.
  std::uint64_t digest() const;

  void validate() const;

  /// The paper's two-pool shape: `unreliable` as a static Grid pool plus
  /// an optional static Cloud pool (absent for pure-grid, N = inf, runs).
  static Environment classic(
      const PoolConfig& unreliable,
      const std::optional<PoolConfig>& reliable = std::nullopt);

 private:
  std::string name_;
  std::vector<PoolSpec> pools_;
};

/// Fluent construction of environments. Role defaults follow the dynamics:
/// spot and serverless pools are Cloud, multi-region and volunteer pools
/// are Grid.
class EnvironmentBuilder {
 public:
  explicit EnvironmentBuilder(std::string name) : name_(std::move(name)) {}

  EnvironmentBuilder& grid(PoolConfig pool);
  EnvironmentBuilder& cloud(PoolConfig pool);
  EnvironmentBuilder& spot(PoolConfig pool, SpotMarketDynamics dynamics);
  EnvironmentBuilder& serverless(std::string pool_name,
                                 ServerlessDynamics dynamics);
  EnvironmentBuilder& multi_region(PoolConfig pool,
                                   MultiRegionDynamics dynamics);
  EnvironmentBuilder& volunteer(PoolConfig pool, VolunteerDynamics dynamics);

  Environment build();

 private:
  std::string name_;
  std::vector<PoolSpec> pools_;
};

/// The architecture catalogue the CLI (`--arch`) and the
/// fig_arch_frontiers bench expose. Classic is the paper's grid + cloud
/// pair; the other four swap in one of the new pool dynamics.
enum class Architecture { Classic, Spot, Serverless, MultiRegion, Volunteer };

Architecture parse_architecture(std::string_view text);
const char* to_string(Architecture arch) noexcept;
const std::vector<Architecture>& all_architectures();

/// Paper-calibrated reference environment per architecture: the grid side
/// holds `grid_size` machines calibrated to `target_gamma` at
/// `mean_runtime` (the Table IV recipe); the cloud side is the 20-machine
/// reliable pool, replaced by the architecture's dynamics where they apply.
Environment make_reference_environment(Architecture arch,
                                       std::size_t grid_size,
                                       double target_gamma,
                                       double mean_runtime);

}  // namespace expert::gridsim::env
