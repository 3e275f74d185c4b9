#pragma once

// Shared machinery of the benchmark program: options, the closed-loop run
// skeleton, the in-memory span recorder, sample statistics and the result
// record every workload fills in.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "expert/core/pareto.hpp"
#include "expert/obs/metrics.hpp"
#include "expert/util/hash.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seed whose output digest is pinned (see kPinnedDigests in main.cpp).
inline constexpr std::uint64_t kDefaultSeed = 1;
/// p90 needs at least ten samples beyond it.
inline constexpr std::size_t kMinOps = 100;
/// Set-ups per run; setup_s reports their median.
inline constexpr int kSetupReps = 5;
/// Outputs (one per op; one per BoT for execute, whose op is a round of
/// BoTs) that enter the run's output digest. Fixed, so runs of any length
/// (traced or not) digest the same outputs.
inline constexpr std::size_t kDigestOps = 12;
/// A run stops measuring after this much wall time even if it has not
/// reached kMinOps, so it always exits well inside its time limit.
inline constexpr double kWallCapS = 120.0;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;    ///< result records and Chrome traces
  std::string state_dir;  ///< scratch state (service journals, manifest)
  std::string commit = "unknown";
  std::string source_digest = "unknown";
  std::string self_exe;   ///< this binary, for worker self-exec
  unsigned threads = 1;   ///< eval pool size (nproc)
};

double seconds_between(Clock::time_point a, Clock::time_point b);
double ms_between(Clock::time_point a, Clock::time_point b);
/// When main() was entered: the start of the first set-up.
Clock::time_point process_start();

/// Median and linear-interpolated quantile of an unsorted sample.
double quantile(std::vector<double> values, double q);
double median(const std::vector<double>& values);
double mean(const std::vector<double>& values);

/// In-memory span recorder. Off (one branch per span) outside traced
/// steps; spans are written once, at exit, as Chrome-trace JSON.
class Tracer {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    long parent;  ///< index into spans(), -1 for a root
    std::uint64_t op;
  };

  static Tracer& get();
  void set_on(bool on) noexcept { on_ = on; }
  void set_op(std::uint64_t op) noexcept { op_ = op; }

  long begin(const char* name);
  void end(long index);

  /// Durations [ms] of every span named `name`.
  std::vector<double> durations_ms(const std::string& name) const;
  /// Self time per layer (name prefix before the first '.'): span duration
  /// minus the part covered by its children.
  std::map<std::string, double> layer_self_ms() const;
  void write_chrome_trace(const std::string& path) const;

 private:
  bool on_ = false;
  std::uint64_t op_ = 0;
  long open_ = -1;
  std::vector<Span> spans_;
};

/// Records a span while the tracer is on.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  long index_ = -1;
};

/// Counter/histogram deltas of the library's global obs registry.
class Counters {
 public:
  void take_before();
  void take_after();
  std::uint64_t delta(const std::string& counter) const;
  /// Summed (count, sum) delta over every label set of a histogram.
  std::pair<std::uint64_t, double> histogram_delta(
      const std::string& name) const;

 private:
  expert::obs::Snapshot before_;
  expert::obs::Snapshot after_;
};

/// Everything a run measured. Workloads append to it; main() reduces it.
struct RunRecord {
  std::vector<double> setup_s;
  std::vector<double> op_ms;         ///< untraced ops
  std::vector<double> traced_op_ms;  ///< traced ops (traced runs only)
  std::vector<double> tenant_s;
  double timed_s = 0.0;              ///< wall time of the timed steps
  std::uint64_t ops = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  /// Output digest over the first kDigestOps outputs.
  expert::util::HashState digest{0xD16E57ULL};
  std::size_t digested = 0;
  double worker_peak_rss_mb = 0.0;

  /// Per-layer samples (reduced by median) and direct values.
  std::map<std::string, std::vector<double>> layer_samples;
  std::map<std::string, double> layer_values;
  /// The base of every ratio, printed beside it.
  std::map<std::string, std::string> bases;

  void fail(const std::string& why);
  /// Fold one output into the digest while under kDigestOps.
  bool wants_digest() const noexcept { return digested < kDigestOps; }
  void add_op(double ms, bool traced);
};

/// One closed-loop workload. main() constructs it kSetupReps times
/// (setup_s is their median), keeps the last, and then alternates
/// untraced and (in a traced run) traced steps until the run is long
/// enough.
class Workload {
 public:
  virtual ~Workload() = default;
  /// One-time set-up plus one untimed warm-up op.
  virtual void setup() = 0;
  /// One timed step: one op for plan and execute, one scheduling round for
  /// service. Records op latencies into the run record and returns the
  /// step's timed wall time [s].
  virtual double step(bool traced) = 0;
  /// After the timed loop: final output checks and per-layer reductions.
  virtual void finish(bool traced) = 0;
};

std::unique_ptr<Workload> make_plan(const Options& options, RunRecord& record);
std::unique_ptr<Workload> make_execute(const Options& options,
                                       RunRecord& record);
std::unique_ptr<Workload> make_service(const Options& options,
                                       RunRecord& record, int setup_rep);

/// Worker-process entry for the execute workload (self-exec).
int execute_worker_main(const std::string& arch, std::uint64_t seed);

/// Fold every field of a strategy point into an output digest.
void mix_point(expert::util::HashState& h, const expert::core::StrategyPoint& p);

/// Peak RSS of this process [MB].
double self_peak_rss_mb();
/// Peak RSS of the largest reaped child process [MB].
double children_peak_rss_mb();

/// Fixed integer ALU loop [ms], timed at the start and end of every run so
/// host drift shows next to a metric move.
double host_ref_ms();

}  // namespace perfbench
