#include "expert/service/service.hpp"

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <utility>

#include "expert/core/utility.hpp"
#include "expert/eval/service.hpp"
#include "expert/gridsim/executor.hpp"
#include "expert/gridsim/presets.hpp"
#include "expert/obs/tracing.hpp"
#include "expert/resilience/drift.hpp"
#include "expert/resilience/journal.hpp"
#include "expert/util/assert.hpp"
#include "expert/util/hash.hpp"
#include "expert/util/rng.hpp"

namespace expert::service {

namespace {

/// Domain separator for the scheduling digest in the manifest header.
constexpr std::uint64_t kSchedulingSalt = 0x5C4ED0135A17ULL;

constexpr const char* kManifestFile = "service.manifest";

std::uint64_t compute_scheduling_digest(const CampaignService::Options& o) {
  return util::HashState(kSchedulingSalt)
      .mix(static_cast<std::uint64_t>(o.max_active_tenants))
      .mix(static_cast<std::uint64_t>(o.queue_capacity))
      .mix(o.quantum_units)
      .digest();
}

}  // namespace

/// Per-tenant state. Member order matters: the journal must outlive the
/// campaign, whose recorder closure points into it.
struct CampaignService::Tenant {
  explicit Tenant(TenantSpec s, std::size_t idx)
      : spec(std::move(s)), index(idx) {}

  TenantSpec spec;
  std::size_t index;
  TenantPhase phase = TenantPhase::Queued;
  std::optional<TerminationCause> termination;
  std::optional<core::Utility> utility;
  std::shared_ptr<resilience::DriftDetector> detector;
  std::optional<resilience::CampaignJournal> journal;
  std::unique_ptr<core::Campaign> campaign;
  /// Next BoT index to run == finished reports so far (quarantined BoTs
  /// report too, so this is exact across resume).
  std::size_t next_bot = 0;
  /// bots_done carried over from the manifest for terminal tenants whose
  /// campaign is not reconstructed on resume.
  std::uint64_t restored_done = 0;
  /// DRR deficit, in eval units. Can go negative: a BoT whose sweep costs
  /// more than one quantum runs (cost is unknowable up front), then the
  /// tenant sits out rounds until credits repay the overdraft.
  std::int64_t deficit = 0;
  /// Simulated eval units charged so far (cache misses x repetitions).
  std::uint64_t eval_units = 0;
  /// Journal size frozen at retirement — the fd closes then, but status
  /// should keep reporting what the tenant wrote (a tenant terminated for
  /// journal_byte_budget must not read as 0 bytes).
  std::uint64_t final_journal_bytes = 0;
  /// Cumulative scheduling wall time spent on this tenant's BoTs.
  std::uint64_t wall_ns = 0;
  obs::Counter bots_counter;
  obs::Counter units_counter;
};

CampaignService::CampaignService(Options options)
    : CampaignService(std::move(options), nullptr) {}

CampaignService::CampaignService(Options options, const Manifest* restored)
    : options_(std::move(options)) {
  EXPERT_REQUIRE(options_.backend_factory != nullptr,
                 "service needs a backend factory");
  EXPERT_REQUIRE(options_.max_active_tenants > 0,
                 "service needs at least one active slot");
  EXPERT_REQUIRE(options_.quantum_units > 0,
                 "DRR quantum must be positive");
  scheduling_digest_ = compute_scheduling_digest(options_);
  queue_.reserve(options_.queue_capacity);
  active_.reserve(options_.max_active_tenants);

  obs::Registry& reg = obs::Registry::global();
  // Per-tenant series (service.tenant.*) carry one label set per admitted
  // tenant; make sure a busy service is not silently capped at the
  // registry default.
  reg.set_max_series_per_name(
      std::max(reg.max_series_per_name(),
               options_.max_active_tenants + options_.queue_capacity + 64));
  admitted_counter_ = reg.counter("service.admitted");
  rounds_counter_ = reg.counter("service.rounds");
  bots_counter_ = reg.counter("service.bots");
  for (std::size_t i = 0; i < kShedReasonCount; ++i) {
    shed_counters_[i] = reg.counter(
        "service.shed", {{"reason", to_string(static_cast<ShedReason>(i))}});
  }
  for (std::size_t i = 0; i < kTerminationCauseCount; ++i) {
    terminated_counters_[i] = reg.counter(
        "service.terminated",
        {{"reason", to_string(static_cast<TerminationCause>(i))}});
  }

  if (!options_.state_dir.empty()) {
    // mkdir either succeeds or the directory already exists; anything else
    // is a configuration error worth failing loudly on.
    if (::mkdir(options_.state_dir.c_str(), 0755) != 0) {
      EXPERT_REQUIRE(errno == EEXIST,
                     "cannot create state dir " + options_.state_dir);
    }
  }

  if (restored != nullptr) {
    for (const ManifestEntry& entry : restored->entries) {
      tenants_.push_back(
          std::make_unique<Tenant>(entry.spec, tenants_.size()));
      Tenant& tenant = *tenants_.back();
      tenant.phase = entry.phase;
      tenant.termination = entry.termination;
      tenant.restored_done = entry.bots_done;
      ++stats_.admitted;
      switch (entry.phase) {
        case TenantPhase::Queued:
          queue_.push_back(tenant.index);
          break;
        case TenantPhase::Active:
          restore_active(tenant);
          active_.push_back(tenant.index);
          break;
        case TenantPhase::Completed:
        case TenantPhase::Terminated:
          break;  // terminal: the manifest record is the whole state
      }
    }
    promote();
  }
  persist();
}

CampaignService::~CampaignService() = default;

CampaignService CampaignService::resume(Options options) {
  EXPERT_REQUIRE(!options.state_dir.empty(),
                 "resume needs a state dir to resume from");
  const Manifest manifest =
      read_manifest(options.state_dir + "/" + kManifestFile,
                    compute_scheduling_digest(options));
  return CampaignService(std::move(options), &manifest);
}

CampaignService::Tenant* CampaignService::find(
    const std::string& id) noexcept {
  for (const auto& tenant : tenants_) {
    if (tenant->spec.id == id) return tenant.get();
  }
  return nullptr;
}

const CampaignService::Tenant* CampaignService::find(
    const std::string& id) const noexcept {
  return const_cast<CampaignService*>(this)->find(id);
}

AdmissionResult CampaignService::shed(ShedReason reason, std::string detail) {
  ++stats_.shed_total;
  ++stats_.shed[static_cast<std::size_t>(reason)];
  shed_counters_[static_cast<std::size_t>(reason)].inc();
  AdmissionResult result;
  result.admitted = false;
  result.shed = reason;
  result.detail = std::move(detail);
  return result;
}

AdmissionResult CampaignService::submit(const TenantSpec& spec) {
  if (shutting_down_) {
    return shed(ShedReason::ShuttingDown, "service is shutting down");
  }
  std::string error = validate_spec(spec);
  if (!error.empty()) {
    return shed(ShedReason::InvalidSpec, std::move(error));
  }
  if (find(spec.id) != nullptr) {
    return shed(ShedReason::DuplicateTenant,
                "tenant '" + spec.id + "' already admitted");
  }
  const bool slot_free = active_.size() < options_.max_active_tenants;
  if (!slot_free && queue_.size() >= options_.queue_capacity) {
    return shed(ShedReason::QueueFull,
                "active slots and admission queue are full");
  }

  tenants_.push_back(std::make_unique<Tenant>(spec, tenants_.size()));
  Tenant& tenant = *tenants_.back();
  ++stats_.admitted;
  admitted_counter_.inc();
  AdmissionResult result;
  result.admitted = true;
  if (slot_free) {
    activate(tenant);
    active_.push_back(tenant.index);
    result.phase = TenantPhase::Active;
  } else {
    queue_.push_back(tenant.index);
    result.phase = TenantPhase::Queued;
  }
  persist();
  return result;
}

void CampaignService::activate(Tenant& tenant) {
  tenant.phase = TenantPhase::Active;
  tenant.utility = core::parse_utility(tenant.spec.utility);

  core::Campaign::Options copts = campaign_options_for(tenant.spec);
  eval::EvalService* eval =
      options_.eval != nullptr ? options_.eval : &eval::EvalService::global();
  copts.expert.frontier.service = eval;
  copts.expert.frontier.tenant = tenant.spec.id;
  Tenant* tp = &tenant;  // stable: tenants_ holds unique_ptrs
  copts.expert.frontier.on_simulated_units = [tp](std::size_t units) {
    tp->eval_units += units;
  };
  if (tenant.spec.drift) {
    tenant.detector = std::make_shared<resilience::DriftDetector>();
    // Invalidation is digest-keyed: a trip evicts only entries derived
    // from this tenant's own (stale) turnaround model, never a neighbor's.
    copts.drift_monitor =
        resilience::make_drift_monitor(tenant.detector, &eval->cache());
  }
  if (!options_.state_dir.empty()) {
    tenant.journal.emplace(journal_path(tenant.spec.id), copts);
    copts.recorder = tenant.journal->recorder();
  }
  tenant.campaign = std::make_unique<core::Campaign>(
      options_.backend_factory(tenant.spec), copts);

  obs::Registry& reg = obs::Registry::global();
  tenant.bots_counter =
      reg.counter("service.tenant.bots", {{"tenant", tenant.spec.id}});
  tenant.units_counter =
      reg.counter("service.tenant.eval_units", {{"tenant", tenant.spec.id}});
}

void CampaignService::restore_active(Tenant& tenant) {
  tenant.utility = core::parse_utility(tenant.spec.utility);

  core::Campaign::Options copts = campaign_options_for(tenant.spec);
  eval::EvalService* eval =
      options_.eval != nullptr ? options_.eval : &eval::EvalService::global();
  copts.expert.frontier.service = eval;
  copts.expert.frontier.tenant = tenant.spec.id;
  Tenant* tp = &tenant;
  copts.expert.frontier.on_simulated_units = [tp](std::size_t units) {
    tp->eval_units += units;
  };

  const std::string path = journal_path(tenant.spec.id);
  resilience::Recovered recovered = resilience::recover_campaign(path, copts);

  if (tenant.spec.drift) {
    tenant.detector = std::make_shared<resilience::DriftDetector>();
    // The detector is a pure fold over (report, trace) observations, so
    // replaying the journal's records reconstructs its exact pre-crash
    // state (quarantined records carry no trace and were never observed).
    for (const resilience::RecoveredRecord& record : recovered.records) {
      if (record.history) {
        tenant.detector->observe_bot(record.report, *record.history);
      }
    }
    copts.drift_monitor =
        resilience::make_drift_monitor(tenant.detector, &eval->cache());
  }

  tenant.journal.emplace(resilience::CampaignJournal::reopen(path, copts));
  copts.recorder = tenant.journal->recorder();
  tenant.next_bot = recovered.state.reports.size();
  tenant.campaign = std::make_unique<core::Campaign>(core::Campaign::resume(
      options_.backend_factory(tenant.spec), copts,
      std::move(recovered.state)));
  // eval_units restarts at zero: the re-planning a resumed campaign does
  // over a cold cache was already charged to the pre-crash process. The
  // journal-byte quota, in contrast, is crash-persistent (file size).

  obs::Registry& reg = obs::Registry::global();
  tenant.bots_counter =
      reg.counter("service.tenant.bots", {{"tenant", tenant.spec.id}});
  tenant.units_counter =
      reg.counter("service.tenant.eval_units", {{"tenant", tenant.spec.id}});
}

void CampaignService::promote() {
  bool changed = false;
  while (!queue_.empty() && active_.size() < options_.max_active_tenants) {
    const std::size_t index = queue_.front();
    queue_.erase(queue_.begin());
    activate(*tenants_[index]);
    active_.push_back(index);
    changed = true;
  }
  if (changed) persist();
}

bool CampaignService::step() {
  promote();
  if (active_.empty()) return !queue_.empty();
  ++stats_.rounds;
  rounds_counter_.inc();

  // Snapshot: retire() edits active_ mid-round.
  const std::vector<std::size_t> round = active_;
  for (const std::size_t index : round) {
    Tenant& tenant = *tenants_[index];
    if (tenant.phase != TenantPhase::Active) continue;
    tenant.deficit += static_cast<std::int64_t>(options_.quantum_units);
    // A resumed tenant may already be over its (crash-persistent)
    // journal-byte quota before running anything this round.
    enforce_quotas(tenant);
    while (tenant.phase == TenantPhase::Active &&
           tenant.next_bot < tenant.spec.bots.size() && tenant.deficit > 0) {
      run_one_bot(tenant);
      enforce_quotas(tenant);
    }
    if (tenant.phase == TenantPhase::Active &&
        tenant.next_bot >= tenant.spec.bots.size()) {
      retire(tenant, TenantPhase::Completed, std::nullopt);
    }
  }
  promote();
  return !active_.empty() || !queue_.empty();
}

void CampaignService::run_until_idle() {
  while (step()) {
  }
}

void CampaignService::run_one_bot(Tenant& tenant) {
  const std::uint64_t t0 = obs::Tracer::global().now_ns();
  const std::uint64_t units_before = tenant.eval_units;
  const workload::Bot bot = make_tenant_bot(tenant.spec, tenant.next_bot);
  const core::Campaign::BotReport report =
      tenant.campaign->run_bot(bot, *tenant.utility);
  ++tenant.next_bot;
  tenant.wall_ns += obs::Tracer::global().now_ns() - t0;

  const std::uint64_t units = tenant.eval_units - units_before;
  tenant.deficit -= static_cast<std::int64_t>(1 + units);
  ++stats_.bots_run;
  bots_counter_.inc();
  tenant.bots_counter.inc();
  tenant.units_counter.inc(units);
  if (options_.on_bot_finished) {
    options_.on_bot_finished(tenant.spec.id, report);
  }
}

void CampaignService::enforce_quotas(Tenant& tenant) {
  if (tenant.phase != TenantPhase::Active) return;
  const TenantQuotas& quotas = tenant.spec.quotas;
  if (quotas.max_eval_units > 0 &&
      tenant.eval_units > quotas.max_eval_units) {
    retire(tenant, TenantPhase::Terminated,
           TerminationCause::EvalUnitBudget);
    return;
  }
  if (quotas.max_wall_seconds > 0.0 &&
      static_cast<double>(tenant.wall_ns) * 1e-9 > quotas.max_wall_seconds) {
    retire(tenant, TenantPhase::Terminated,
           TerminationCause::WallClockBudget);
    return;
  }
  if (quotas.max_journal_bytes > 0 && tenant.journal &&
      tenant.journal->bytes() > quotas.max_journal_bytes) {
    retire(tenant, TenantPhase::Terminated,
           TerminationCause::JournalByteBudget);
  }
}

void CampaignService::retire(Tenant& tenant, TenantPhase phase,
                             std::optional<TerminationCause> cause) {
  tenant.phase = phase;
  tenant.termination = cause;
  tenant.restored_done = tenant.next_bot;
  const auto it = std::find(active_.begin(), active_.end(), tenant.index);
  if (it != active_.end()) active_.erase(it);
  // Close the journal fd (the file stays for post-mortems). The retired
  // campaign's recorder closure now dangles, but run_bot is never called
  // on a non-Active tenant, so it can never fire again.
  if (tenant.journal) tenant.final_journal_bytes = tenant.journal->bytes();
  tenant.journal.reset();
  if (cause) {
    terminated_counters_[static_cast<std::size_t>(*cause)].inc();
  }
  persist();
}

void CampaignService::persist() const {
  if (options_.state_dir.empty()) return;
  Manifest manifest;
  manifest.entries.reserve(tenants_.size());
  for (const auto& tenant : tenants_) {
    ManifestEntry entry;
    entry.spec = tenant->spec;
    entry.phase = tenant->phase;
    entry.termination = tenant->termination;
    entry.bots_done = tenant->campaign != nullptr
                          ? tenant->campaign->completed_bots()
                          : tenant->restored_done;
    manifest.entries.push_back(std::move(entry));
  }
  write_manifest(options_.state_dir + "/" + kManifestFile, manifest,
                 scheduling_digest_);
}

std::string CampaignService::journal_path(const std::string& id) const {
  return options_.state_dir + "/" + id + ".journal";
}

std::vector<CampaignService::TenantStatus> CampaignService::status() const {
  std::vector<TenantStatus> out;
  out.reserve(tenants_.size());
  for (const auto& tenant : tenants_) {
    out.push_back(*status(tenant->spec.id));
  }
  return out;
}

std::optional<CampaignService::TenantStatus> CampaignService::status(
    const std::string& id) const {
  const Tenant* tenant = find(id);
  if (tenant == nullptr) return std::nullopt;
  TenantStatus s;
  s.id = tenant->spec.id;
  s.phase = tenant->phase;
  s.termination = tenant->termination;
  s.bots_done = tenant->campaign != nullptr
                    ? tenant->campaign->completed_bots()
                    : static_cast<std::size_t>(tenant->restored_done);
  s.bots_total = tenant->spec.bots.size();
  s.quarantined =
      tenant->campaign != nullptr ? tenant->campaign->quarantined_bots() : 0;
  s.eval_units = tenant->eval_units;
  s.journal_bytes =
      tenant->journal ? tenant->journal->bytes() : tenant->final_journal_bytes;
  return s;
}

const std::vector<core::Campaign::BotReport>& CampaignService::reports(
    const std::string& id) const {
  static const std::vector<core::Campaign::BotReport> kEmpty;
  const Tenant* tenant = find(id);
  if (tenant == nullptr || tenant->campaign == nullptr) return kEmpty;
  return tenant->campaign->reports();
}

gridsim::ExecutorConfig gridsim_executor_config(
    const GridsimBackendOptions& options, const TenantSpec& spec) {
  gridsim::ExecutorConfig config;
  config.environment = gridsim::env::Environment::classic(
      gridsim::make_wm(options.unreliable_machines, options.gamma,
                       spec.mean_cpu),
      gridsim::make_tech(options.reliable_machines));
  // Per-tenant executor seed: derived from the factory seed, the tenant
  // id, and the tenant seed, so no two tenants (and no two factory
  // configurations) share machine-level randomness.
  config.seed = util::derive_seed(
      util::derive_seed(
          options.seed,
          util::HashState().mix(std::string_view(spec.id)).digest()),
      spec.seed);
  if (const chaos::ChaosConfig* plan =
          chaos::plan_for(options.chaos, spec.id)) {
    config.chaos = *plan;
  }
  return config;
}

CampaignService::BackendFactory make_gridsim_backend_factory(
    GridsimBackendOptions options) {
  return [options = std::move(options)](const TenantSpec& spec) {
    const gridsim::ExecutorConfig config =
        gridsim_executor_config(options, spec);
    return [config](const workload::Bot& bot,
                    const strategies::StrategyConfig& strategy,
                    std::uint64_t stream) {
      return gridsim::Executor(config).run(bot, strategy, stream);
    };
  };
}

}  // namespace expert::service
