// `execute`: per-architecture machine-level execution (Table V's "reality
// side"), with no estimator work. One op is a round over the five
// reference architectures: the WL1 BoT (820 tasks) runs under a fixed NTDMr
// strategy in each architecture's worker process in turn. Every op then
// does the same mix of work, so its latency percentiles sit inside one
// cluster instead of on the edge between architectures whose BoTs differ
// in cost by 30x.

#include <array>
#include <optional>
#include <string>

#include "expert/gridsim/env/environment.hpp"
#include "expert/gridsim/executor.hpp"
#include "expert/procexec/codec.hpp"
#include "expert/procexec/supervisor.hpp"
#include "expert/procexec/wire.hpp"
#include "expert/procexec/worker.hpp"
#include "expert/util/rng.hpp"
#include "expert/workload/presets.hpp"
#include "harness.hpp"

namespace perfbench {
namespace {

using namespace expert;
using gridsim::env::Architecture;

constexpr std::size_t kArchs = 5;
constexpr std::size_t kGridSize = 200;  // Experiment 11's OSG pool
constexpr double kGamma = 0.827;
/// Coprime to kArchs, so the checks visit every architecture.
constexpr std::uint64_t kCheckEvery = 7;

const std::array<Architecture, kArchs>& architectures() {
  static const std::array<Architecture, kArchs> archs = {
      Architecture::Classic, Architecture::Spot, Architecture::Serverless,
      Architecture::MultiRegion, Architecture::Volunteer};
  return archs;
}

const workload::WorkloadSpec& wl1() {
  return workload::workload_spec(workload::WorkloadId::WL1);
}

/// The executor both the worker and the in-process check run: identical
/// inputs on both sides of the process boundary.
gridsim::ExecutorConfig arch_config(Architecture arch, std::uint64_t seed) {
  gridsim::ExecutorConfig cfg;
  cfg.environment = gridsim::env::make_reference_environment(
      arch, kGridSize, kGamma, wl1().mean_cpu);
  cfg.throughput_deadline = wl1().deadline_d;
  cfg.seed = util::derive_seed(seed, 0xE7EC);
  return cfg;
}

class Execute final : public Workload {
 public:
  Execute(const Options& options, RunRecord& record)
      : options_(options), record_(record) {}

  void setup() override {
    bot_ = workload::make_bot(workload::WorkloadId::WL1,
                              util::derive_seed(options_.seed, 0xB07));
    for (std::size_t a = 0; a < kArchs; ++a) {
      const Architecture arch = architectures()[a];
      executors_[a].emplace(arch_config(arch, options_.seed));
      strategies::NTDMr p;
      p.n = 3;
      p.timeout_t = wl1().timeout_t;
      p.deadline_d = wl1().deadline_d;
      p.mr = executors_[a]->environment().has_cloud() ? 0.4 : 0.0;
      strategies_[a] = strategies::make_ntdmr_strategy(p);
      procexec::SupervisorOptions sopts;
      sopts.workers = 1;
      sopts.worker_program = options_.self_exe;
      sopts.worker_args = {"--worker", gridsim::env::to_string(arch),
                           std::to_string(options_.seed)};
      pools_[a] = std::make_unique<procexec::ProcessPool>(std::move(sopts));
      // Spawn and warm the worker: its first run pays exec, page faults
      // and the architecture's first dynamics build.
      pools_[a]->run(bot_, strategies_[a], ~0ULL - a);
    }
  }

  double step(bool traced) override {
    std::array<std::optional<trace::ExecutionTrace>, kArchs> outs;
    std::array<std::string, kArchs> errors;
    std::array<double, kArchs> bot_ms{};
    const auto t0 = Clock::now();
    {
      ScopedSpan span("procexec.round");
      for (std::size_t a = 0; a < kArchs; ++a) {
        const auto b0 = Clock::now();
        try {
          ScopedSpan run_span("procexec.run");
          outs[a] = pools_[a]->run(bot_, strategies_[a], stream(bot_index(a)));
        } catch (const std::exception& e) {
          errors[a] = e.what();
        }
        bot_ms[a] = ms_between(b0, Clock::now());
      }
    }
    const auto t1 = Clock::now();
    Tracer::get().set_on(false);
    obs::Registry::global().set_enabled(false);

    record_.add_op(ms_between(t0, t1), traced);
    for (std::size_t a = 0; a < kArchs; ++a) {
      const std::uint64_t bot = bot_index(a);
      if (!outs[a]) {
        record_.fail("execute BoT " + std::to_string(bot) + ": " + errors[a]);
        continue;
      }
      const std::string response = procexec::encode_response(*outs[a]);
      if (record_.wants_digest()) {
        record_.digest.mix(std::string_view(response));
        ++record_.digested;
      }
      if (traced || bot % kCheckEvery == kCheckEvery - 1) {
        check_and_replay(a, bot, *outs[a], response, bot_ms[a], traced);
      }
    }
    ++op_;
    return seconds_between(t0, t1);
  }

  void finish(bool traced) override {
    std::uint64_t restarts = 0;
    for (auto& pool : pools_) restarts += pool->stats().restarts;
    pools_ = {};  // reap every worker, so their peak RSS is readable
    record_.worker_peak_rss_mb = children_peak_rss_mb();
    if (!traced) return;
    record_.layer_values["procexec.worker_restarts"] = static_cast<double>(restarts);
    for (int i = 0; i < 3; ++i) {
      const auto t0 = Clock::now();
      const auto bot = workload::make_bot(workload::WorkloadId::WL1,
                                          util::derive_seed(options_.seed, 0xB07));
      record_.layer_samples["workload.synth_ms"].push_back(ms_between(t0, Clock::now()));
      if (bot.size() != bot_.size()) record_.fail("execute: BoT synthesis is not deterministic");
    }
    record_.layer_values["gridsim.forced_windows_per_bot"] =
        replays_ ? static_cast<double>(forced_windows_) / static_cast<double>(replays_) : 0.0;
    record_.bases["gridsim.forced_windows_per_bot"] =
        std::to_string(forced_windows_) + " windows / " + std::to_string(replays_) +
        " in-process runs";
  }

 private:
  /// BoTs are numbered across rounds; BoT i runs on architecture i mod 5
  /// with its own stream.
  std::uint64_t bot_index(std::size_t a) const { return op_ * kArchs + a; }
  std::uint64_t stream(std::uint64_t bot) const {
    return util::derive_seed(options_.seed ^ 0xE7ULL, bot);
  }

  /// In-process Executor::run on one BoT's inputs: the trace must match the
  /// worker's byte for byte. In traced steps it also yields the gridsim
  /// and procexec layer costs.
  void check_and_replay(std::size_t a, std::uint64_t bot,
                        const trace::ExecutionTrace& remote,
                        const std::string& response, double bot_ms, bool traced) {
    const std::uint64_t stream = this->stream(bot);
    Counters counters;
    if (traced) {
      counters.take_before();
      obs::Registry::global().set_enabled(true);
    }
    const auto t0 = Clock::now();
    const auto local = executors_[a]->run(bot_, strategies_[a], stream);
    const double run_ms = ms_between(t0, Clock::now());
    if (traced) {
      obs::Registry::global().set_enabled(false);
      counters.take_after();
    }
    if (procexec::encode_response(local) != response) {
      record_.fail("execute BoT " + std::to_string(bot) + " (" +
                   gridsim::env::to_string(architectures()[a]) +
                   "): worker trace differs from the in-process run");
    }
    if (!traced) return;
    const std::string arch = gridsim::env::to_string(architectures()[a]);
    record_.layer_samples["gridsim.run_ms." + arch].push_back(run_ms);
    record_.layer_samples["procexec.overhead_ms"].push_back(bot_ms - run_ms);
    forced_windows_ += counters.delta("gridsim.dynamics.forced_windows");
    ++replays_;

    const auto c0 = Clock::now();
    const std::string request = procexec::encode_request(bot_, strategies_[a], stream);
    const auto decoded_request = procexec::decode_request(request);
    const std::string encoded = procexec::encode_response(remote);
    const auto decoded = procexec::decode_response(encoded);
    record_.layer_samples["procexec.codec_ms"].push_back(ms_between(c0, Clock::now()));
    if (decoded.records().size() != remote.records().size() ||
        decoded_request.stream != stream) {
      record_.fail("execute: codec round trip lost data");
    }
    record_.layer_samples["procexec.frame_bytes"].push_back(static_cast<double>(
        procexec::encode_frame(procexec::FrameType::Request, request).size() +
        procexec::encode_frame(procexec::FrameType::Response, encoded).size()));
  }

  const Options& options_;
  RunRecord& record_;
  workload::Bot bot_;
  std::array<std::optional<gridsim::Executor>, kArchs> executors_;
  std::array<strategies::StrategyConfig, kArchs> strategies_;
  std::array<std::unique_ptr<procexec::ProcessPool>, kArchs> pools_;
  std::uint64_t op_ = 0;
  std::uint64_t forced_windows_ = 0;
  std::uint64_t replays_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_execute(const Options& options, RunRecord& record) {
  return std::make_unique<Execute>(options, record);
}

int execute_worker_main(const std::string& arch, std::uint64_t seed) {
  const gridsim::Executor executor(
      arch_config(gridsim::env::parse_architecture(arch), seed));
  return procexec::worker_main([&executor](const workload::Bot& bot,
                                           const strategies::StrategyConfig& strategy,
                                           std::uint64_t stream) {
    return executor.run(bot, strategy, stream);
  });
}

}  // namespace perfbench
