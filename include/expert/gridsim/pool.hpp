#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "expert/stats/distributions.hpp"

namespace expert::gridsim {

/// Pricing of one machine group: cents per second of consumed CPU time,
/// charged per `period_s` as used (1 s on grids and self-owned clusters,
/// 3600 s on EC2-like clouds).
struct PriceSpec {
  double rate_cents_per_s = 0.0;
  double period_s = 1.0;
};

/// A homogeneous group of machines inside a pool.
struct MachineGroup {
  std::size_t count = 0;
  /// Machine speeds are lognormal around `speed_mean` with coefficient of
  /// variation `speed_cv` (0 = perfectly homogeneous). Runtime of a task
  /// with cpu time c on a machine of speed s is c / s.
  double speed_mean = 1.0;
  double speed_cv = 0.0;
  /// Up/down alternating-exponential availability process. Machines that
  /// go down lose their running instance silently; the overlay middleware
  /// returns the slot to service after the down period.
  stats::AvailabilityModel availability{1.0e12, 1.0};
  /// Host-to-host reliability heterogeneity: each machine's mean up-time is
  /// the group mean scaled by a lognormal factor with this coefficient of
  /// variation (0 = identical hosts). Makes resource exclusion meaningful:
  /// culling flaky hosts then genuinely raises the pool's reliability.
  double availability_cv = 0.0;
  PriceSpec price;
  /// Probability that a host death is *reported* to the scheduler (BOINC
  /// clients sometimes do); reported failures resolve at death time rather
  /// than at the instance deadline — one of the model/reality gaps the
  /// paper's Table V quantifies.
  double failure_notice_prob = 0.0;
  /// Mean of the exponentially-distributed waiting time between dispatch
  /// and execution start (remote batch-queue latency). The paper only
  /// assumes waiting times "can be modeled statistically"; 0 disables it.
  double mean_queue_wait_s = 0.0;
};

/// A resource pool: a named collection of machine groups, used either as
/// the unreliable or as the reliable side of the environment.
struct PoolConfig {
  std::string name;
  std::vector<MachineGroup> groups;

  std::size_t total_machines() const noexcept;
  void validate() const;

  /// Concatenate two pools (Table IV's OSG+WM, WM+EC2, WM+Tech rows).
  static PoolConfig combine(const std::string& name, const PoolConfig& a,
                            const PoolConfig& b);
};

/// Mean up-time such that an always-on workload of `mean_runtime`-second
/// instances succeeds with probability ~`target_gamma` per instance
/// (exponential up-times: gamma = E[exp(-runtime / mean_up)]).
double calibrate_mean_uptime(double mean_runtime, double target_gamma);

}  // namespace expert::gridsim
