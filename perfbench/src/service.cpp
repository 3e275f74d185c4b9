// `service`: the campaign BoT under multi-tenant load. Six closed-loop
// tenant clients share one CampaignService with four active slots, so two
// always wait for admission; one heavy client's dense sweeps overdraw the
// DRR quantum. One op is one tenant BoT.

#include <filesystem>
#include <map>
#include <stdexcept>

#include "expert/eval/service.hpp"
#include "expert/resilience/journal.hpp"
#include "expert/service/service.hpp"
#include "expert/util/rng.hpp"
#include "harness.hpp"

namespace perfbench {
namespace {

using namespace expert;
namespace fs = std::filesystem;

constexpr std::size_t kClients = 6;
constexpr std::size_t kMaxActive = 4;
constexpr std::size_t kBotsPerCampaign = 4;
constexpr std::size_t kTasksPerBot = 120;
constexpr std::size_t kHeavyDensity = 5;
constexpr std::size_t kLightDensity = 2;
/// A light campaign costs ~265 units in all and a heavy re-plan ~1700, so
/// the heavy client overdraws and sits out ~4 rounds per re-plan while
/// light campaigns turn over every round.
constexpr std::uint64_t kQuantumUnits = 400;
constexpr std::size_t kMaxSynthReplays = 8;

std::uint64_t digest_report(const core::Campaign::BotReport& r) {
  util::HashState h(0x5E4BULL);
  const auto& s = r.strategy;
  h.mix(std::string_view(s.name)).mix(static_cast<std::uint64_t>(s.throughput));
  h.mix(static_cast<std::uint64_t>(s.tail_mode)).mix(s.budget_cents);
  h.mix(static_cast<std::uint64_t>(s.ntdmr.n ? *s.ntdmr.n + 1 : 0));
  h.mix(s.ntdmr.timeout_t).mix(s.ntdmr.deadline_d).mix(s.ntdmr.mr);
  h.mix(r.used_recommendation).mix(r.makespan).mix(r.tail_makespan);
  h.mix(r.cost_per_task_cents).mix(static_cast<std::uint64_t>(r.outcome));
  h.mix(static_cast<std::uint64_t>(r.retries)).mix(r.truncated);
  h.mix(r.predicted.has_value());
  if (r.predicted) mix_point(h, *r.predicted);
  h.mix(static_cast<std::uint64_t>(r.degradation ? static_cast<int>(*r.degradation) + 1 : 0));
  h.mix(r.model_digest.value_or(0));
  return h.digest();
}

class Service final : public Workload {
 public:
  Service(const Options& options, RunRecord& record, int setup_rep)
      : options_(options),
        record_(record),
        state_dir_(options.state_dir + "/service-" + std::to_string(setup_rep)) {}

  ~Service() override {
    service_.reset();
    std::error_code ec;
    fs::remove_all(state_dir_, ec);
  }

  void setup() override {
    fs::remove_all(state_dir_);
    fs::create_directories(state_dir_);
    eval_ = std::make_unique<eval::EvalService>(eval::EvalCache::kDefaultCapacity,
                                                options_.threads);
    service::CampaignService::Options o;
    o.max_active_tenants = kMaxActive;
    o.queue_capacity = kClients;
    o.quantum_units = kQuantumUnits;
    o.state_dir = state_dir_;
    o.backend_factory = service::make_gridsim_backend_factory({});
    o.eval = eval_.get();
    o.on_bot_finished = [this](const std::string& id,
                               const core::Campaign::BotReport& report) {
      on_bot(id, report);
    };
    service_ = std::make_unique<service::CampaignService>(std::move(o));
    // Warm-up: a light two-BoT campaign. Its second BoT is the first to
    // re-plan, which spawns the eval pool.
    service::TenantSpec warm = make_spec(kClients, 0);
    warm.id = "warmup";
    warm.bots.resize(2);
    warming_ = true;
    if (!service_->submit(warm).admitted) throw std::runtime_error("warm-up shed");
    service_->run_until_idle();
    warming_ = false;
    clients_.assign(kClients, Client{});
  }

  double step(bool traced) override {
    Counters counters;
    if (traced) counters.take_before();
    const auto t0 = Clock::now();
    for (std::size_t k = 0; k < kClients; ++k) {
      if (clients_[k].tenant.empty()) submit(k);
    }
    mark_ = Clock::now();
    {
      ScopedSpan span("service.step");
      service_->step();
    }
    poll();
    const auto t1 = Clock::now();
    if (traced) counters.take_after();
    Tracer::get().set_on(false);
    obs::Registry::global().set_enabled(false);

    for (const auto& op : pending_) {
      record_.add_op(op.ms, traced);
      if (op.quarantined) record_.fail("service: " + op.tenant + " quarantined a BoT");
      if (record_.wants_digest()) {
        record_.digest.mix(std::string_view(op.tenant)).mix(op.digest);
        ++record_.digested;
      }
    }
    if (traced) replay(counters);
    pending_.clear();
    return seconds_between(t0, t1);
  }

  void finish(bool traced) override {
    // Drain the campaigns still in flight (untimed) so every tenant can be
    // checked for completion and journal recovery.
    service_->begin_shutdown();
    service_->run_until_idle();
    pending_.clear();
    std::vector<double> recover_ms, append_ms, bytes_per_bot;
    for (const auto& [id, spec] : specs_) {
      const auto status = service_->status(id);
      if (!status || status->phase != service::TenantPhase::Completed) {
        record_.fail("service: tenant " + id + " did not complete");
        continue;
      }
      const auto& reports = service_->reports(id);
      const std::string path = state_dir_ + "/" + id + ".journal";
      const auto options = service::campaign_options_for(spec);
      const auto t0 = Clock::now();
      const auto recovered = resilience::recover_campaign(path, options);
      recover_ms.push_back(ms_between(t0, Clock::now()));
      bool same = recovered.state.reports.size() == reports.size();
      for (std::size_t i = 0; same && i < reports.size(); ++i) {
        same = digest_report(recovered.state.reports[i]) == digest_report(reports[i]);
      }
      if (!same) record_.fail("service: journal of " + id + " does not reproduce its reports");
      if (!traced) continue;
      bytes_per_bot.push_back(static_cast<double>(fs::file_size(path)) /
                              static_cast<double>(reports.size()));
      // Re-append the recovered records to a scratch journal on the same
      // file system: the journal-append layer in isolation.
      const std::string scratch = state_dir_ + "/scratch.journal";
      {
        resilience::CampaignJournal journal(scratch, options);
        std::uint64_t next_stream = 1;
        for (const auto& rec : recovered.records) {
          const core::Campaign::BotRecord bot_record{
              rec.report, rec.history ? &*rec.history : nullptr, ++next_stream};
          const auto a0 = Clock::now();
          journal.record(bot_record);
          append_ms.push_back(ms_between(a0, Clock::now()));
        }
      }
      fs::remove(scratch);
    }
    if (!traced) return;
    record_.layer_values["resilience.recover_ms"] = median(recover_ms);
    record_.layer_values["resilience.journal_append_ms"] = median(append_ms);
    record_.layer_values["resilience.journal_bytes_per_bot"] = median(bytes_per_bot);
    record_.layer_values["eval.batch_ms"] =
        batches_ ? batch_ms_total_ / static_cast<double>(batches_) : 0.0;
    record_.layer_values["eval.units_per_batch"] =
        batches_ ? static_cast<double>(units_) / static_cast<double>(batches_) : 0.0;
    record_.bases["eval.units_per_batch"] =
        std::to_string(units_) + " units / " + std::to_string(batches_) + " batches";
    const auto lookups = hits_ + misses_;
    record_.layer_values["eval.cache.hit_ratio"] =
        lookups ? static_cast<double>(hits_) / static_cast<double>(lookups) : 0.0;
    record_.bases["eval.cache.hit_ratio"] =
        std::to_string(hits_) + " hits / " + std::to_string(lookups) + " lookups";
    record_.layer_samples["service.queue_wait_s"] = queue_wait_s_;
    record_.bases["eval.pool_efficiency"] =
        "not measured: tenant estimators are internal to CampaignService";
  }

 private:
  struct Client {
    std::string tenant;  ///< current campaign; empty when due to submit
    std::size_t campaigns = 0;
    Clock::time_point submitted;
    bool admitted_seen = false;
  };

  struct FinishedOp {
    std::string tenant;
    double ms;
    std::uint64_t digest;
    bool quarantined;
    std::size_t index;
  };

  service::TenantSpec make_spec(std::size_t client, std::size_t campaign) const {
    service::TenantSpec spec;
    spec.id.append("c").append(std::to_string(client)).append("-").append(
        std::to_string(campaign));
    const std::uint64_t key = (static_cast<std::uint64_t>(client) << 32) | campaign;
    for (std::size_t b = 0; b < kBotsPerCampaign; ++b) {
      spec.bots.push_back({kTasksPerBot, util::derive_seed(options_.seed ^ 0xB0B5ULL,
                                                           (key << 4) | b)});
    }
    spec.sampling_density = client == 0 ? kHeavyDensity : kLightDensity;
    spec.seed = util::derive_seed(options_.seed ^ 0x7E4AULL, key);
    return spec;
  }

  void submit(std::size_t k) {
    Client& c = clients_[k];
    service::TenantSpec spec = make_spec(k, c.campaigns++);
    c.tenant = spec.id;
    c.submitted = Clock::now();
    c.admitted_seen = false;
    service::AdmissionResult result;
    {
      ScopedSpan span("service.submit");
      result = service_->submit(spec);
    }
    ++record_.attempted;
    if (!result.admitted) {
      record_.fail("service: " + spec.id + " shed (" + result.detail + ")");
      c.tenant.clear();
      return;
    }
    --record_.attempted;  // counted by its BoTs instead
    specs_.emplace(spec.id, std::move(spec));
  }

  void on_bot(const std::string& id, const core::Campaign::BotReport& report) {
    const auto now = Clock::now();
    const double ms = ms_between(mark_, now);
    mark_ = now;
    if (warming_) return;
    const std::size_t index = bots_seen_[id]++;
    pending_.push_back({id, ms, digest_report(report),
                        report.outcome == core::Campaign::BotOutcome::Quarantined,
                        index});
    if (index + 1 == kBotsPerCampaign) completed_at_[id] = now;
  }

  /// Tenant phases, polled between rounds.
  void poll() {
    const auto now = Clock::now();
    for (auto& c : clients_) {
      if (c.tenant.empty()) continue;
      const auto status = service_->status(c.tenant);
      if (!status) continue;
      if (!c.admitted_seen && status->phase != service::TenantPhase::Queued) {
        c.admitted_seen = true;
        queue_wait_s_.push_back(seconds_between(c.submitted, now));
      }
      if (status->phase == service::TenantPhase::Terminated) {
        record_.fail("service: " + c.tenant + " terminated");
        c.tenant.clear();
      } else if (status->phase == service::TenantPhase::Completed) {
        record_.tenant_s.push_back(
            seconds_between(c.submitted, completed_at_.at(c.tenant)));
        c.tenant.clear();
      }
    }
  }

  void replay(const Counters& counters) {
    units_ += counters.delta("eval.batch.units");
    batches_ += counters.delta("eval.batch.batches");
    hits_ += counters.delta("eval.cache.hits");
    misses_ += counters.delta("eval.cache.misses");
    batch_ms_total_ += counters.histogram_delta("eval.batch.wall_seconds").second * 1e3;
    if (pending_.empty() || synth_replays_ >= kMaxSynthReplays) return;
    ++synth_replays_;
    const FinishedOp& op = pending_.front();
    const auto t0 = Clock::now();
    const auto bot = service::make_tenant_bot(specs_.at(op.tenant), op.index);
    record_.layer_samples["workload.synth_ms"].push_back(ms_between(t0, Clock::now()));
    if (bot.size() != kTasksPerBot) record_.fail("service: tenant BoT has the wrong size");
  }

  const Options& options_;
  RunRecord& record_;
  const std::string state_dir_;
  std::unique_ptr<eval::EvalService> eval_;
  std::unique_ptr<service::CampaignService> service_;
  bool warming_ = false;
  std::vector<Client> clients_;
  std::map<std::string, service::TenantSpec> specs_;
  std::map<std::string, std::size_t> bots_seen_;
  std::map<std::string, Clock::time_point> completed_at_;
  std::vector<FinishedOp> pending_;
  Clock::time_point mark_;
  std::vector<double> queue_wait_s_;
  std::size_t synth_replays_ = 0;
  std::uint64_t units_ = 0, batches_ = 0, hits_ = 0, misses_ = 0;
  double batch_ms_total_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_service(const Options& options, RunRecord& record,
                                       int setup_rep) {
  return std::make_unique<Service>(options, record, setup_rep);
}

}  // namespace perfbench
