#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "expert/chaos/chaos.hpp"
#include "expert/core/campaign.hpp"
#include "expert/gridsim/executor.hpp"
#include "expert/obs/metrics.hpp"
#include "expert/service/manifest.hpp"
#include "expert/service/tenant.hpp"

namespace expert::eval {
class EvalService;
}  // namespace expert::eval

namespace expert::service {

/// Long-lived multi-tenant campaign service (docs/service.md): many tenant
/// campaigns share one eval::EvalService behind admission control,
/// deficit-round-robin fair-share scheduling, per-tenant budgets, and hard
/// fault isolation.
///
/// Isolation is by construction, not by sandboxing: every eval result is a
/// pure function of its content-derived EvalKey, every tenant's randomness
/// is derived from its own spec, and per-tenant state (campaign, journal,
/// drift detector) is disjoint. A tenant degraded by chaos, drift, or a
/// quota therefore cannot perturb a neighbor's bytes — the differential
/// isolation test (tests/service/isolation_test.cpp) pins this.
///
/// Single-threaded by design: submit/step/run_until_idle are driven from
/// one thread (the server loop). Parallelism lives below, in the eval
/// pool, where it cannot affect results.
class CampaignService {
 public:
  /// Creates the backend for one tenant's campaign. Called once at
  /// activation; the returned closure must be self-contained (own its
  /// executor/pool) so tenants never share mutable backend state.
  using BackendFactory = std::function<core::Campaign::Backend(
      const TenantSpec& spec)>;

  /// Observer invoked after every finished BoT with the owning tenant's id.
  /// Purely observational (CLI progress lines, crash-injection hooks in
  /// tests); results do not depend on it.
  using BotObserver = std::function<void(
      const std::string& tenant_id, const core::Campaign::BotReport& report)>;

  struct Options {
    /// Concurrently active tenant campaigns. More submissions wait in the
    /// admission queue.
    std::size_t max_active_tenants = 8;
    /// Bounded admission queue. Submissions beyond it are shed with
    /// ShedReason::QueueFull — deterministically and without allocating,
    /// never by growing memory.
    std::size_t queue_capacity = 16;
    /// Deficit-round-robin quantum, in eval units (one unit = one
    /// candidate x repetition simulated on a cache miss, plus 1 per BoT).
    /// Each scheduling round credits every active tenant this many units;
    /// a tenant runs BoTs while its deficit is positive, so heavy sweeps
    /// pay their backlog across rounds instead of starving light tenants.
    std::uint64_t quantum_units = 2000;
    /// Directory for per-tenant journals and the service manifest. Empty
    /// disables persistence (and resume).
    std::string state_dir;
    /// Per-tenant campaign backend. Required.
    BackendFactory backend_factory;
    /// Shared evaluation layer; nullptr uses eval::EvalService::global().
    eval::EvalService* eval = nullptr;
    /// Optional per-BoT observer.
    BotObserver on_bot_finished;
  };

  /// Point-in-time view of one tenant.
  struct TenantStatus {
    std::string id;
    TenantPhase phase = TenantPhase::Queued;
    std::optional<TerminationCause> termination;
    std::size_t bots_done = 0;
    std::size_t bots_total = 0;
    std::size_t quarantined = 0;
    /// Simulated eval units charged so far (cache misses only) — the DRR
    /// cost measure and the eval-unit quota's meter. Restarts at 0 on
    /// resume (warm journal replay re-plans from cache, which is free).
    std::uint64_t eval_units = 0;
    /// Journal file size in bytes; 0 when persistence is off. Frozen at
    /// the size the tenant had written when it completed or terminated
    /// (the fd closes at retirement, the file stays for post-mortems).
    std::uint64_t journal_bytes = 0;
  };

  /// Service-wide counters, mirrored as obs metrics (service.*).
  struct Stats {
    std::uint64_t admitted = 0;
    std::uint64_t shed_total = 0;
    std::uint64_t shed[kShedReasonCount] = {};
    std::uint64_t rounds = 0;
    std::uint64_t bots_run = 0;
  };

  explicit CampaignService(Options options);
  ~CampaignService();
  CampaignService(const CampaignService&) = delete;
  CampaignService& operator=(const CampaignService&) = delete;

  /// Restore a service from `options.state_dir` after a crash: read the
  /// checksummed manifest, replay every active tenant's journal (reports,
  /// histories, stream counter, drift-detector state), and re-queue queued
  /// tenants — so the schedule continues exactly where SIGKILL stopped it.
  /// Throws util::ContractViolation on a missing/corrupt manifest or on a
  /// scheduling/options digest mismatch.
  static CampaignService resume(Options options);

  /// Admit, queue, or shed one tenant. Never throws on bad input — an
  /// invalid spec is shed with ShedReason::InvalidSpec; shedding is the
  /// contract, not an error.
  AdmissionResult submit(const TenantSpec& spec);

  /// Stop admitting (submissions shed with ShedReason::ShuttingDown);
  /// already-admitted tenants keep running to completion.
  void begin_shutdown() noexcept { shutting_down_ = true; }

  /// One DRR scheduling round: credit every active tenant one quantum, run
  /// each while its deficit lasts, enforce quotas between BoTs, then
  /// promote queued tenants into freed slots. Returns true while any
  /// tenant is active or queued.
  bool step();

  /// step() until every admitted tenant is terminal.
  void run_until_idle();

  const Stats& stats() const noexcept { return stats_; }
  bool shutting_down() const noexcept { return shutting_down_; }
  std::uint64_t scheduling_digest() const noexcept {
    return scheduling_digest_;
  }

  /// Status of every admitted tenant, in admission order.
  std::vector<TenantStatus> status() const;
  /// Status of one tenant; nullopt when the id was never admitted.
  std::optional<TenantStatus> status(const std::string& id) const;
  /// Finished reports of one tenant (empty when unknown or not started).
  const std::vector<core::Campaign::BotReport>& reports(
      const std::string& id) const;

 private:
  struct Tenant;

  CampaignService(Options options, const Manifest* restored);

  Tenant* find(const std::string& id) noexcept;
  const Tenant* find(const std::string& id) const noexcept;
  /// What a fresh and a resumed campaign share: the parsed utility, the
  /// campaign options on the eval service with the tenant's label and
  /// unit accounting, and the per-tenant series.
  core::Campaign::Options wire_campaign(Tenant& tenant);
  void activate(Tenant& tenant);
  void restore_active(Tenant& tenant);
  void promote();
  void run_one_bot(Tenant& tenant);
  void enforce_quotas(Tenant& tenant);
  void retire(Tenant& tenant, TenantPhase phase,
              std::optional<TerminationCause> cause);
  void persist() const;
  std::string journal_path(const std::string& id) const;
  AdmissionResult shed(ShedReason reason, std::string detail);

  Options options_;
  std::uint64_t scheduling_digest_ = 0;
  bool shutting_down_ = false;
  Stats stats_;

  /// Counter handles pre-registered at construction so the hot admission
  /// and shed paths never build label sets.
  obs::Counter admitted_counter_;
  obs::Counter rounds_counter_;
  obs::Counter bots_counter_;
  obs::Counter shed_counters_[kShedReasonCount];
  obs::Counter terminated_counters_[kTerminationCauseCount];

  /// Admission-order tenant registry. unique_ptr for address stability:
  /// the eval accounting hook and journal recorder close over the Tenant.
  std::vector<std::unique_ptr<Tenant>> tenants_;
  /// Indices into tenants_: FIFO admission queue (bounded by
  /// queue_capacity, reserved up front) and the active set in admission
  /// order.
  std::vector<std::size_t> queue_;
  std::vector<std::size_t> active_;
};

/// Configuration of the stock gridsim backend factory: every tenant gets
/// its own Executor over a WM-style unreliable pool and a Tech-style
/// reliable pool, seeded from (seed, tenant spec) so tenants never share
/// randomness, with chaos routed per tenant id.
struct GridsimBackendOptions {
  std::size_t unreliable_machines = 40;
  double gamma = 0.82;
  std::size_t reliable_machines = 10;
  std::uint64_t seed = 0x5EBE7ULL;
  /// Tenant-targeted fault plans (chaos::parse_targeted_plans grammar).
  /// A tenant whose id matches no entry runs chaos-free.
  std::vector<chaos::TargetedChaos> chaos;
};

/// The stock simulation backend used by `expert_cli serve --backend
/// gridsim`, the service tests, and the soak harness.
CampaignService::BackendFactory make_gridsim_backend_factory(
    GridsimBackendOptions options);

/// The exact executor config make_gridsim_backend_factory builds for one
/// tenant (uses only spec.id, spec.mean_cpu, and spec.seed). Exposed so
/// `expert_cli serve --backend process` workers rebuild a byte-identical
/// environment in their own process.
gridsim::ExecutorConfig gridsim_executor_config(
    const GridsimBackendOptions& options, const TenantSpec& spec);

}  // namespace expert::service
