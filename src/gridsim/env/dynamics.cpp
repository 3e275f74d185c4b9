#include "expert/gridsim/env/dynamics.hpp"

#include <algorithm>
#include <cmath>

#include "expert/util/assert.hpp"
#include "expert/util/rng.hpp"

namespace expert::gridsim::env {

namespace {

/// Stream-domain separators (same discipline as the chaos layer) so no two
/// dynamics processes — and no dynamics process and the scheduling stream —
/// ever share an RNG stream for equal run streams.
constexpr std::uint64_t kSpotDomain = 0x5B07D011ULL;
constexpr std::uint64_t kVolunteerDomain = 0xD07CC1EULL;

}  // namespace

SpotMarketStream::SpotMarketStream(const SpotMarketDynamics& spec,
                                   double horizon_s, std::uint64_t stream)
    : spec_(spec),
      horizon_s_(horizon_s),
      rng_(util::derive_seed(util::derive_seed(spec.seed, stream),
                             kSpotDomain)),
      done_(horizon_s <= 0.0) {
  EXPERT_REQUIRE(spec.step_s > 0.0, "spot price path needs a positive step");
  EXPERT_REQUIRE(spec.initial_rate_cents_per_s > 0.0,
                 "spot price path needs a positive initial rate");
}

bool SpotMarketStream::draw_point() {
  if (done_) return false;
  const std::size_t k = path_.size();
  const double t = static_cast<double>(k) * spec_.step_s;
  if (t >= horizon_s_ && k > 0) {
    done_ = true;
    return false;
  }
  // The excursion x_k is volatility-free: shocks are standard normal and
  // only the exponent scales with volatility. That makes the out-of-bid
  // set {k : x_k > ln(bid/initial) / volatility} pointwise monotone in
  // volatility for bid > initial — the property the dynamics tests pin.
  path_.push_back(
      {t, spec_.initial_rate_cents_per_s * std::exp(spec_.volatility * x_)});
  x_ = (1.0 - spec_.reversion) * x_ + rng_.normal();
  return true;
}

const PricePoint* SpotMarketStream::point(std::size_t k) {
  while (path_.size() <= k) {
    if (!draw_point()) return nullptr;
  }
  return &path_[k];
}

const chaos::ForcedWindow* SpotMarketStream::window(std::size_t i) {
  const auto out_of_bid = [this](const PricePoint* p) {
    return p->rate_cents_per_s > spec_.bid_cents_per_s;
  };
  while (windows_.size() <= i) {
    const PricePoint* p = point(scan_);
    while (p != nullptr && !out_of_bid(p)) p = point(++scan_);
    if (p == nullptr) return nullptr;
    chaos::ForcedWindow w{p->time, std::min(p->time + spec_.step_s, horizon_s_),
                          chaos::WindowCause::OutOfBid};
    // Coalesce the following out-of-bid steps exactly as merge_windows
    // would: a step joins when it starts at or before the window's end. A
    // step at or below the bid closes the window, since every later step
    // starts a whole step past its end.
    for (p = point(++scan_); p != nullptr && out_of_bid(p) && p->time <= w.end;
         p = point(++scan_)) {
      w.end = std::max(w.end, std::min(p->time + spec_.step_s, horizon_s_));
    }
    windows_.push_back(w);
  }
  return &windows_[i];
}

double SpotMarketStream::rate_at(double time) {
  while ((path_.empty() || path_.back().time <= time) && draw_point()) {
  }
  return spot_rate_at(path_, time);
}

std::vector<PricePoint> spot_price_path(const SpotMarketDynamics& spec,
                                        double horizon_s,
                                        std::uint64_t stream) {
  SpotMarketStream market(spec, horizon_s, stream);
  while (market.draw_point()) {
  }
  return market.path();
}

double spot_rate_at(const std::vector<PricePoint>& path, double time) {
  EXPERT_REQUIRE(!path.empty(), "spot_rate_at needs a non-empty path");
  auto it = std::upper_bound(
      path.begin(), path.end(), time,
      [](double t, const PricePoint& p) { return t < p.time; });
  if (it == path.begin()) return it->rate_cents_per_s;
  return std::prev(it)->rate_cents_per_s;
}

std::vector<chaos::ForcedWindow> spot_out_of_bid_windows(
    const SpotMarketDynamics& spec, double horizon_s, std::uint64_t stream) {
  SpotMarketStream market(spec, horizon_s, stream);
  std::vector<chaos::ForcedWindow> windows;
  while (const auto* w = market.window(windows.size())) windows.push_back(*w);
  return windows;
}

std::vector<std::vector<chaos::ForcedWindow>> region_blackout_windows(
    const MultiRegionDynamics& spec, std::size_t regions,
    std::uint64_t stream) {
  // Delegate to the chaos layer's group-blackout generator so environment
  // blackouts and a chaos plan with equal parameters draw the *same*
  // windows — the correlation property the tests assert is structural, not
  // approximate.
  chaos::ChaosConfig plan;
  plan.seed = spec.seed;
  plan.blackouts_per_group = spec.blackouts_per_region;
  plan.blackout_window_s = spec.blackout_window_s;
  plan.blackout_mean_duration_s = spec.blackout_mean_duration_s;
  return chaos::blackout_schedule(plan, regions, stream);
}

DutyCycleStream::DutyCycleStream(const VolunteerDynamics& spec,
                                 double horizon_s, std::uint64_t host_ordinal,
                                 std::uint64_t stream)
    : horizon_s_(horizon_s),
      rng_(util::Rng(util::derive_seed(util::derive_seed(spec.seed, stream),
                                       kVolunteerDomain))
               .fork(host_ordinal)) {
  EXPERT_REQUIRE(spec.duty_on_mean_s > 0.0 && spec.duty_off_mean_s > 0.0,
                 "volunteer duty cycle needs positive on/off means");
  on_rate_ = 1.0 / spec.duty_on_mean_s;
  off_rate_ = 1.0 / spec.duty_off_mean_s;
  next_start_ = rng_.exponential(on_rate_);
}

const chaos::ForcedWindow* DutyCycleStream::window(std::size_t i) {
  while (windows_.size() <= i) {
    if (next_start_ >= horizon_s_) return nullptr;
    const double off = rng_.exponential(off_rate_);
    windows_.push_back({next_start_, next_start_ + off,
                        chaos::WindowCause::DutyCycle});
    next_start_ += off + rng_.exponential(on_rate_);
  }
  return &windows_[i];
}

std::vector<chaos::ForcedWindow> volunteer_off_windows(
    const VolunteerDynamics& spec, double horizon_s,
    std::uint64_t host_ordinal, std::uint64_t stream) {
  DutyCycleStream cycle(spec, horizon_s, host_ordinal, stream);
  std::vector<chaos::ForcedWindow> windows;
  while (const auto* w = cycle.window(windows.size())) windows.push_back(*w);
  return windows;
}

PoolConfig make_serverless_pool(std::string name,
                                const ServerlessDynamics& spec) {
  EXPERT_REQUIRE(spec.max_concurrency > 0,
                 "serverless pool needs max_concurrency > 0");
  EXPERT_REQUIRE(spec.rate_cents_per_s > 0.0,
                 "serverless pool needs a positive rate");
  EXPERT_REQUIRE(spec.cold_start_mean_s >= 0.0,
                 "serverless cold start must be >= 0");
  MachineGroup g;
  g.count = spec.max_concurrency;
  g.speed_mean = spec.speed_mean;
  g.speed_cv = 0.0;
  g.availability = stats::AvailabilityModel{1.0e12, 1.0};  // never fails
  g.price = PriceSpec{spec.rate_cents_per_s, 0.001};       // per-ms billing
  g.failure_notice_prob = 1.0;
  g.mean_queue_wait_s = spec.cold_start_mean_s;
  PoolConfig pool;
  pool.name = std::move(name);
  pool.groups.push_back(g);
  return pool;
}

}  // namespace expert::gridsim::env
