#pragma once

// Shared between the procexec test suite and the procexec_test_worker
// binary: the differential test compares journals byte-for-byte, so both
// sides must build *identical* executor environments and bots.

#include <cstdint>
#include <string>

#include "expert/gridsim/executor.hpp"
#include "expert/gridsim/presets.hpp"
#include "expert/workload/presets.hpp"

namespace expert::procexec::testing {

inline gridsim::ExecutorConfig make_test_env() {
  gridsim::ExecutorConfig cfg;
  cfg.environment = gridsim::env::Environment::classic(
      gridsim::make_wm(30, 0.9, 1000.0), gridsim::make_tech(5));
  cfg.seed = 4242;
  return cfg;
}

inline workload::Bot make_test_bot(std::uint64_t index) {
  return workload::make_synthetic_bot("bot-" + std::to_string(index), 40,
                                      1000.0, 400.0, 2500.0, 99 + index);
}

}  // namespace expert::procexec::testing
