#pragma once

// Real payload material for the codec tests: gridsim traces of every
// reference architecture with no chaos, with a plan that fires every fault
// class, and cut at a short horizon, plus the BoTs and strategies that
// produced them. Together the traces carry every InstanceOutcome and both
// values of the truncated flag.

#include <cstdint>
#include <string>
#include <vector>

#include "expert/chaos/chaos.hpp"
#include "expert/gridsim/env/environment.hpp"
#include "expert/gridsim/executor.hpp"
#include "expert/strategies/static_strategies.hpp"
#include "expert/trace/trace.hpp"
#include "expert/workload/presets.hpp"

namespace expert::codec_corpus {

/// Every fault class of the chaos layer, as in the gridsim golden tests.
inline constexpr const char* kFullChaosPlan =
    "seed=7 blackouts=2 blackout_window=20000 blackout_duration=3000 "
    "shrink=0.25 shrink_start=9000 shrink_duration=6000 flash=0.2 "
    "flash_start=3000 flash_duration=12000 dispatch_fail=0.1 loss=0.05";
/// Reliable launches fail often and are never retried: DispatchFailed.
inline constexpr const char* kAbandonPlan =
    "seed=5 dispatch_fail=0.6 dispatch_retries=0";

inline strategies::StrategyConfig corpus_strategy() {
  strategies::NTDMr p;
  p.n = 1;
  p.timeout_t = 2066.0;
  p.deadline_d = 4.0 * 2066.0;
  p.mr = 0.4;
  return strategies::make_ntdmr_strategy(p);
}

/// Strategies covering every throughput policy, tail mode and both arms
/// of N, plus the NTDMr corpus strategy.
inline std::vector<strategies::StrategyConfig> corpus_strategies() {
  std::vector<strategies::StrategyConfig> out = {corpus_strategy()};
  for (const auto kind : strategies::kAllStaticStrategies) {
    out.push_back(strategies::make_static_strategy(kind, 2066.0, 0.4, 750.0));
  }
  return out;
}

inline workload::Bot corpus_bot(std::size_t tasks) {
  return workload::make_synthetic_bot("corpus", tasks, 2066.0, 300.0, 6000.0,
                                      0xB07ULL);
}

/// Traces of `bot` on every reference architecture with `hosts` grid
/// machines: no chaos, kFullChaosPlan, kAbandonPlan, and kFullChaosPlan cut
/// at a 9,000 s horizon, each for `streams` run streams from
/// `first_stream` on.
inline std::vector<trace::ExecutionTrace> corpus_traces(
    const workload::Bot& bot, std::size_t hosts, std::uint64_t streams,
    std::uint64_t first_stream = 1) {
  struct Case {
    const char* plan;
    double max_sim_time;
  };
  const Case cases[] = {{nullptr, 5.0e7},
                        {kFullChaosPlan, 5.0e7},
                        {kAbandonPlan, 5.0e7},
                        {kFullChaosPlan, 9000.0}};
  std::vector<trace::ExecutionTrace> out;
  for (const auto arch : gridsim::env::all_architectures()) {
    for (const Case& c : cases) {
      gridsim::ExecutorConfig cfg;
      cfg.environment =
          gridsim::env::make_reference_environment(arch, hosts, 0.827, 2066.0);
      cfg.throughput_deadline = 4.0 * 2066.0;
      cfg.seed = 0xC0DECULL;
      cfg.max_sim_time = c.max_sim_time;
      if (c.plan != nullptr) cfg.chaos = chaos::parse_chaos_plan(c.plan);
      const gridsim::Executor executor(cfg);
      for (std::uint64_t stream = first_stream;
           stream < first_stream + streams; ++stream) {
        out.push_back(executor.run(bot, corpus_strategy(), stream));
      }
    }
  }
  return out;
}

}  // namespace expert::codec_corpus
