#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "expert/chaos/chaos.hpp"
#include "expert/gridsim/env/environment.hpp"
#include "expert/util/rng.hpp"

namespace expert::gridsim::env {

/// The pure, executor-independent generators behind each pool dynamics.
/// Everything here is deterministic in (spec, stream): the executor derives
/// `stream` from its own (seed, run stream) pair, so dynamics never draw
/// from — and never perturb — the scheduling RNG stream. The property
/// tests exercise these directly.

/// One step of a spot price path: the market rate holds from `time` until
/// the next point's `time` (piecewise constant).
struct PricePoint {
  double time = 0.0;
  double rate_cents_per_s = 0.0;
};

/// A spot pool's price process as a resumable stream over [0, horizon_s):
/// it draws price points only as far as a caller has asked, from one
/// sequential RNG, so every prefix equals the whole path's. The
/// out-of-bid windows and the billing rate come from the same path, so a
/// pool draws its prices once.
class SpotMarketStream {
 public:
  SpotMarketStream(const SpotMarketDynamics& spec, double horizon_s,
                   std::uint64_t stream);

  /// Out-of-bid window `i`: a maximal run of steps whose rate exceeds
  /// `spec.bid_cents_per_s`, merged as chaos::merge_windows would, ends
  /// clipped to the horizon, tagged chaos::WindowCause::OutOfBid. Draws
  /// the path one point past the window (to close it); nullptr when the
  /// path ends first.
  const chaos::ForcedWindow* window(std::size_t i);
  /// Market rate at `time` (the rate of the last point at or before it),
  /// drawing the path through `time`.
  double rate_at(double time);
  /// Draw the next price point; false once the path reached the horizon.
  bool draw_point();
  /// The points drawn so far.
  const std::vector<PricePoint>& path() const noexcept { return path_; }

 private:
  const PricePoint* point(std::size_t k);

  SpotMarketDynamics spec_;
  double horizon_s_ = 0.0;
  util::Rng rng_;
  double x_ = 0.0;  ///< excursion of the next point
  bool done_ = false;
  std::vector<PricePoint> path_;
  std::vector<chaos::ForcedWindow> windows_;
  std::size_t scan_ = 0;  ///< next path point the window scan examines
};

/// The market price process over [0, horizon_s), one point per
/// `spec.step_s`: SpotMarketStream drained to the horizon. First point is
/// always {0, initial_rate}.
std::vector<PricePoint> spot_price_path(const SpotMarketDynamics& spec,
                                        double horizon_s,
                                        std::uint64_t stream);

/// Market rate at `time` under `path` (the rate of the last point at or
/// before `time`).
double spot_rate_at(const std::vector<PricePoint>& path, double time);

/// Every out-of-bid window of the price path over [0, horizon_s):
/// SpotMarketStream's windows drained to the horizon. For a fixed
/// (seed, stream) the union of these windows grows pointwise with
/// `spec.volatility` whenever bid > initial_rate (the underlying excursion
/// path is volatility-free).
std::vector<chaos::ForcedWindow> spot_out_of_bid_windows(
    const SpotMarketDynamics& spec, double horizon_s, std::uint64_t stream);

/// Region blackout windows, one vector per region (MachineGroup) of the
/// pool: `blackouts_per_region` windows each, starts uniform in
/// [0, blackout_window_s), durations exponential with mean
/// blackout_mean_duration_s, merged per region, tagged Blackout. Drawn with
/// exactly the chaos layer's group-blackout mechanics so environment
/// blackouts and chaos-plan blackouts with equal parameters coincide.
std::vector<std::vector<chaos::ForcedWindow>> region_blackout_windows(
    const MultiRegionDynamics& spec, std::size_t regions,
    std::uint64_t stream);

/// One volunteer host's duty cycle as a resumable stream: alternating
/// exponential on (duty_on_mean_s) / off (duty_off_mean_s) periods,
/// starting in the on phase, per-host stream forked by `host_ordinal`.
/// Off windows start before `horizon_s` (their ends are not clipped), are
/// tagged DutyCycle, and are drawn only as far as a caller has asked.
class DutyCycleStream {
 public:
  DutyCycleStream(const VolunteerDynamics& spec, double horizon_s,
                  std::uint64_t host_ordinal, std::uint64_t stream);

  /// Off window `i`; nullptr once the cycle passed the horizon.
  const chaos::ForcedWindow* window(std::size_t i);

 private:
  double horizon_s_ = 0.0;
  double on_rate_ = 0.0;
  double off_rate_ = 0.0;
  util::Rng rng_;
  double next_start_ = 0.0;  ///< start of the next off window
  std::vector<chaos::ForcedWindow> windows_;
};

/// One host's duty-cycle off windows over [0, horizon_s): DutyCycleStream
/// drained to the horizon.
std::vector<chaos::ForcedWindow> volunteer_off_windows(
    const VolunteerDynamics& spec, double horizon_s,
    std::uint64_t host_ordinal, std::uint64_t stream);

/// Compile a serverless dynamics spec into the static pool it executes as:
/// `max_concurrency` always-up unit-speed slots, exponential cold-start
/// via mean_queue_wait_s, per-millisecond billing (PriceSpec.period_s =
/// 0.001) at spec.rate_cents_per_s.
PoolConfig make_serverless_pool(std::string name,
                                const ServerlessDynamics& spec);

}  // namespace expert::gridsim::env
