// §VI "ExPERT Runtime": the computational cost of running ExPERT at the
// paper's resolution — single-strategy estimation in seconds, the full
// space sweep in minutes on a 2008 laptop (much faster here). Implemented
// with google-benchmark.

#include <benchmark/benchmark.h>

#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "expert/core/expert.hpp"
#include "expert/gridsim/env/environment.hpp"
#include "expert/gridsim/executor.hpp"
#include "expert/procexec/codec.hpp"
#include "expert/procexec/wire.hpp"
#include "expert/sim/engine.hpp"
#include "expert/util/rng.hpp"
#include "expert/workload/presets.hpp"

namespace {

using namespace expert;

core::Estimator make_estimator(std::size_t repetitions) {
  return core::Estimator(bench::figure_config(repetitions),
                         bench::experiment11_model());
}

strategies::StrategyConfig knee_strategy() {
  strategies::NTDMr p;
  p.n = 3;
  p.timeout_t = bench::kTur;
  p.deadline_d = 2.0 * bench::kTur;
  p.mr = 0.02;
  return strategies::make_ntdmr_strategy(p);
}

/// One traced run: the instance trace is built as well (figures, CLI).
void BM_SingleStrategyOneRun(benchmark::State& state) {
  const auto estimator = make_estimator(1);
  const auto strategy = knee_strategy();
  std::uint64_t stream = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        estimator.simulate(bench::kBotTasks, strategy, stream++).first);
  }
}
BENCHMARK(BM_SingleStrategyOneRun);

/// The same run, metrics only: what estimate() and the eval layer pay.
void BM_SingleStrategyOneRunMetricsOnly(benchmark::State& state) {
  const auto estimator = make_estimator(1);
  const auto strategy = knee_strategy();
  std::uint64_t stream = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        estimator.simulate_metrics(bench::kBotTasks, strategy, stream++));
  }
}
BENCHMARK(BM_SingleStrategyOneRunMetricsOnly);

void BM_SingleStrategyTenRepetitions(benchmark::State& state) {
  const auto estimator = make_estimator(10);
  const auto strategy = knee_strategy();
  std::uint64_t stream = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        estimator.estimate(bench::kBotTasks, strategy, stream++));
  }
}
BENCHMARK(BM_SingleStrategyTenRepetitions);

void BM_EstimatorScalesWithBotSize(benchmark::State& state) {
  const auto estimator = make_estimator(1);
  const auto strategy = knee_strategy();
  const auto tasks = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(estimator.simulate(tasks, strategy).first);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_EstimatorScalesWithBotSize)->Range(64, 4096)->Complexity();

/// The same BoT sizes, metrics only.
void BM_EstimatorScalesWithBotSizeMetricsOnly(benchmark::State& state) {
  const auto estimator = make_estimator(1);
  const auto strategy = knee_strategy();
  const auto tasks = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(estimator.simulate_metrics(tasks, strategy));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_EstimatorScalesWithBotSizeMetricsOnly)
    ->Range(64, 4096)
    ->Complexity();

void BM_ParetoFrontierComputation(benchmark::State& state) {
  util::Rng rng(1);
  std::vector<core::StrategyPoint> points(
      static_cast<std::size_t>(state.range(0)));
  for (auto& p : points) {
    p.makespan = rng.uniform(1000.0, 40000.0);
    p.cost = rng.uniform(0.1, 5.0);
    p.params.n = static_cast<unsigned>(rng.below(4));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::s_pareto(points));
  }
}
BENCHMARK(BM_ParetoFrontierComputation)->Range(64, 8192);

/// Cache hit/miss deltas across one benchmark, exported as counters so the
/// BENCH_eval.json artifact records the hit rate next to the wall time.
void export_cache_counters(benchmark::State& state,
                           const eval::EvalCache::Stats& before) {
  const auto after = eval::EvalService::global().cache().stats();
  const auto hits = static_cast<double>(after.hits - before.hits);
  const auto misses = static_cast<double>(after.misses - before.misses);
  state.counters["cache_hits"] = hits;
  state.counters["cache_misses"] = misses;
  state.counters["cache_hit_rate"] =
      hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
}

void BM_FullFrontierSweepPaperResolution(benchmark::State& state) {
  // The paper's headline: "several minutes" on a 2008 dual-core for dozens
  // of strategies x >10 repetitions. One iteration = the whole ExPERT
  // frontier-generation step at paper resolution, simulated cold: the
  // shared evaluation cache is cleared per iteration.
  const auto estimator = make_estimator(10);
  const auto before = eval::EvalService::global().cache().stats();
  for (auto _ : state) {
    bench::reset_eval_cache();
    benchmark::DoNotOptimize(core::generate_frontier(
        estimator, bench::kBotTasks, bench::paper_sampling()));
  }
  export_cache_counters(state, before);
}
BENCHMARK(BM_FullFrontierSweepPaperResolution)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(8);

void BM_FrontierSweepWarmCache(benchmark::State& state) {
  // A repeated sweep over an unchanged estimator — a campaign re-planning
  // with a stable history window — is pure cache service: zero simulate
  // calls, so this measures keying + lookup + Pareto construction only.
  const auto estimator = make_estimator(10);
  bench::reset_eval_cache();
  benchmark::DoNotOptimize(core::generate_frontier(
      estimator, bench::kBotTasks, bench::paper_sampling()));
  const auto before = eval::EvalService::global().cache().stats();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::generate_frontier(
        estimator, bench::kBotTasks, bench::paper_sampling()));
  }
  export_cache_counters(state, before);
}
BENCHMARK(BM_FrontierSweepWarmCache)->Unit(benchmark::kMillisecond);

void BM_FrontierSweepSingleRepetition(benchmark::State& state) {
  // The accuracy/speed trade the paper mentions: 1 repetition instead of 10.
  const auto estimator = make_estimator(1);
  for (auto _ : state) {
    bench::reset_eval_cache();
    benchmark::DoNotOptimize(core::generate_frontier(
        estimator, bench::kBotTasks, bench::paper_sampling()));
  }
}
BENCHMARK(BM_FrontierSweepSingleRepetition)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(40);

void BM_ArchExecution(benchmark::State& state,
                      gridsim::env::Architecture arch, std::size_t hosts) {
  // Machine-level execution cost per environment architecture: one WL1 BoT
  // (820 tasks) through gridsim on the architecture's reference environment
  // of `hosts` grid hosts. Gates the dynamics machinery (price paths, forced
  // windows, duty cycles) the environment seam added to the executor hot
  // path.
  const auto& wl = workload::workload_spec(workload::WorkloadId::WL1);
  gridsim::ExecutorConfig cfg;
  cfg.environment = gridsim::env::make_reference_environment(
      arch, hosts, bench::kGamma11, bench::kTur);
  cfg.throughput_deadline = wl.deadline_d;
  cfg.seed = bench::kSeed;
  gridsim::Executor executor(cfg);
  strategies::NTDMr p;
  p.n = 3;
  p.timeout_t = wl.timeout_t;
  p.deadline_d = wl.deadline_d;
  p.mr = executor.environment().has_cloud() ? 0.4 : 0.0;
  const auto strategy = strategies::make_ntdmr_strategy(p);
  const auto bot = workload::make_bot(workload::WorkloadId::WL1, 0xB07ULL);
  std::uint64_t stream = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(executor.run(bot, strategy, stream++));
  }
}
BENCHMARK_CAPTURE(BM_ArchExecution, classic,
                  gridsim::env::Architecture::Classic, bench::kPoolSize)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ArchExecution, spot, gridsim::env::Architecture::Spot,
                  bench::kPoolSize)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ArchExecution, serverless,
                  gridsim::env::Architecture::Serverless, bench::kPoolSize)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ArchExecution, multiregion,
                  gridsim::env::Architecture::MultiRegion, bench::kPoolSize)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ArchExecution, volunteer,
                  gridsim::env::Architecture::Volunteer, bench::kPoolSize)
    ->Unit(benchmark::kMillisecond);
// perfbench `execute`'s grid size, where ~200 instances are in flight.
BENCHMARK_CAPTURE(BM_ArchExecution, classic_200,
                  gridsim::env::Architecture::Classic, std::size_t{200})
    ->Unit(benchmark::kMillisecond);

/// The process backend's payloads for the `execute` configuration: the
/// 820-task WL1 request and the trace of one NTDMr(3) run on the 200-host
/// classic environment (~1,200 records). Built once for every codec bench.
struct CodecPayloads {
  workload::Bot bot;
  strategies::StrategyConfig strategy;
  std::optional<trace::ExecutionTrace> trace;
  std::string request;
  std::string response;
};

const CodecPayloads& codec_payloads() {
  static const CodecPayloads payloads = [] {
    const auto& wl = workload::workload_spec(workload::WorkloadId::WL1);
    CodecPayloads p;
    p.bot = workload::make_bot(workload::WorkloadId::WL1, 0xB07ULL);
    strategies::NTDMr ntdmr;
    ntdmr.n = 3;
    ntdmr.timeout_t = wl.timeout_t;
    ntdmr.deadline_d = wl.deadline_d;
    ntdmr.mr = 0.4;
    p.strategy = strategies::make_ntdmr_strategy(ntdmr);
    gridsim::ExecutorConfig cfg;
    cfg.environment = gridsim::env::make_reference_environment(
        gridsim::env::Architecture::Classic, 200, bench::kGamma11,
        bench::kTur);
    cfg.throughput_deadline = wl.deadline_d;
    cfg.seed = bench::kSeed;
    p.trace = gridsim::Executor(cfg).run(p.bot, p.strategy, 1);
    p.request = procexec::encode_request(p.bot, p.strategy, 1);
    p.response = procexec::encode_response(*p.trace);
    return p;
  }();
  return payloads;
}

void BM_TraceCodec_encode(benchmark::State& state) {
  const auto& p = codec_payloads();
  for (auto _ : state) {
    benchmark::DoNotOptimize(procexec::encode_response(*p.trace));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(p.response.size()));
}
BENCHMARK(BM_TraceCodec_encode)->Name("BM_TraceCodec/encode");

void BM_TraceCodec_decode(benchmark::State& state) {
  const auto& p = codec_payloads();
  for (auto _ : state) {
    benchmark::DoNotOptimize(procexec::decode_response(p.response));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(p.response.size()));
}
BENCHMARK(BM_TraceCodec_decode)->Name("BM_TraceCodec/decode");

void BM_RequestCodec_encode(benchmark::State& state) {
  const auto& p = codec_payloads();
  for (auto _ : state) {
    benchmark::DoNotOptimize(procexec::encode_request(p.bot, p.strategy, 1));
  }
}
BENCHMARK(BM_RequestCodec_encode)->Name("BM_RequestCodec/encode");

void BM_RequestCodec_decode(benchmark::State& state) {
  const auto& p = codec_payloads();
  for (auto _ : state) {
    benchmark::DoNotOptimize(procexec::decode_request(p.request));
  }
}
BENCHMARK(BM_RequestCodec_decode)->Name("BM_RequestCodec/decode");

/// The worker's reply as a whole: encode the `execute` trace, frame it as
/// XPF1, then decode the frame and the trace as the parent does.
void BM_FrameRoundTrip(benchmark::State& state) {
  const auto& p = codec_payloads();
  for (auto _ : state) {
    const std::string frame = procexec::encode_frame(
        procexec::FrameType::Response, procexec::encode_response(*p.trace));
    const procexec::DecodeResult decoded = procexec::decode_frame(frame);
    benchmark::DoNotOptimize(procexec::decode_response(decoded.frame.payload));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(p.response.size()));
}
BENCHMARK(BM_FrameRoundTrip);

/// The XPF1 checksum over the `execute` response, which a worker computes
/// to encode the frame and the parent again to decode it.
void BM_FrameChecksum(benchmark::State& state) {
  const auto& p = codec_payloads();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        procexec::frame_checksum(procexec::FrameType::Response, p.response));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(p.response.size()));
}
BENCHMARK(BM_FrameChecksum);

/// Engine layer, per event: a fresh engine schedules events at random
/// times, then runs them all (perfbench's `sim.event_ns` probe shape).
void BM_EngineScheduleFire(benchmark::State& state) {
  const auto events = static_cast<std::size_t>(state.range(0));
  util::Rng rng(bench::kSeed);
  for (auto _ : state) {
    sim::Engine engine;
    std::uint64_t fired = 0;
    for (std::size_t i = 0; i < events; ++i) {
      engine.schedule_at(rng.uniform(0.0, 1e6), [&fired] { ++fired; });
    }
    engine.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EngineScheduleFire)->Arg(20'000);

/// As BM_EngineScheduleFire, but every event is cancelled through its
/// handle before the run, which pops each one and skips it.
void BM_EngineScheduleCancel(benchmark::State& state) {
  const auto events = static_cast<std::size_t>(state.range(0));
  util::Rng rng(bench::kSeed);
  std::vector<sim::Engine::EventHandle> handles;
  handles.reserve(events);
  for (auto _ : state) {
    sim::Engine engine;
    std::uint64_t fired = 0;
    for (std::size_t i = 0; i < events; ++i) {
      handles.push_back(
          engine.schedule_at(rng.uniform(0.0, 1e6), [&fired] { ++fired; }));
    }
    for (auto& handle : handles) handle.cancel();
    engine.run();
    handles.clear();  // a handle must not outlive its engine
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EngineScheduleCancel)->Arg(20'000);

}  // namespace

BENCHMARK_MAIN();
