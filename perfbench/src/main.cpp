// Benchmark program for the ExPERT library.
//
//   expert_perfbench --workload plan|execute|service --seed N --seconds S
//                    --trace 0|1 --out-dir DIR --state-dir DIR
//                    [--commit SHA] [--source-digest HEX]
//
// Untraced runs (--trace 0) print the end-to-end metrics; traced runs
// (--trace 1) alternate untraced and traced steps, and print the per-layer
// metrics plus the tracing overhead. The last stdout line is the result
// JSON; the full record (provenance, ratio bases, per-layer self times)
// and, for traced runs, a Chrome trace go to --out-dir. Exit status: 0 when
// every output check passed, 1 when one failed or the run could not be
// made, 2 on a usage error.

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "harness.hpp"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},         {"op_ms.p50", "ms"},       {"op_ms.p90", "ms"},
    {"ops_per_s", "1/s"},     {"peak_rss_mb", "MB"},     {"tenant_s.p50", "s"},
};

/// Per-layer metrics. A workload whose ops never reach a layer reports 0
/// for it: that layer does none of the workload's timed work.
const MetricDef kPerLayer[] = {
    {"sim.events_per_run", "events"},
    {"sim.cancelled_ratio", "ratio"},
    {"sim.event_ns", "ns"},
    {"core.estimator.run_us", "us"},
    {"core.turnaround_draw_ns", "ns"},
    {"core.characterize_ms", "ms"},
    {"core.frontier_ms", "ms"},
    {"core.pareto_ms", "ms"},
    {"eval.batch_ms", "ms"},
    {"eval.units_per_batch", "units"},
    {"eval.pool_efficiency", "ratio"},
    {"eval.cache.hit_ratio", "ratio"},
    {"eval.cache.lookup_us", "us"},
    {"workload.synth_ms", "ms"},
    {"gridsim.run_ms.classic", "ms"},
    {"gridsim.run_ms.spot", "ms"},
    {"gridsim.run_ms.serverless", "ms"},
    {"gridsim.run_ms.multiregion", "ms"},
    {"gridsim.run_ms.volunteer", "ms"},
    {"gridsim.forced_windows_per_bot", "windows"},
    {"procexec.overhead_ms", "ms"},
    {"procexec.codec_ms", "ms"},
    {"procexec.frame_bytes", "bytes"},
    {"procexec.worker_restarts", "count"},
    {"resilience.journal_append_ms", "ms"},
    {"resilience.journal_bytes_per_bot", "bytes"},
    {"resilience.recover_ms", "ms"},
    {"service.submit_ms", "ms"},
    {"service.step_ms", "ms"},
    {"service.queue_wait_s", "s"},
    {"obs.trace_overhead_ratio", "ratio"},
    {"host.ref_ms", "ms"},
};

/// Per-layer metrics read straight off the benchmark's own spans.
const std::pair<const char*, const char*> kSpanMetrics[] = {
    {"core.characterize_ms", "core.characterize"},
    {"core.frontier_ms", "core.frontier"},
    {"service.submit_ms", "service.submit"},
    {"service.step_ms", "service.step"},
};

/// Output digest of the first kDigestOps ops for the default seed. A
/// change to any computed output shows here first.
struct Pinned {
  const char* workload;
  std::uint64_t digest;
};
const Pinned kPinnedDigests[] = {
    {"plan", 0xe63b10017d8a864eULL},
    {"execute", 0xdc93ae67e5f5f1c3ULL},
    {"service", 0x0a9bd80dfa3d6057ULL},
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "expert_perfbench: " << why
            << "\nusage: expert_perfbench --workload plan|execute|service --seed N"
               " --seconds S --trace 0|1 --out-dir DIR --state-dir DIR"
               " [--commit SHA] [--source-digest HEX]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        o.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        o.trace = value == "1";
      } else if (flag == "--out-dir") {
        o.out_dir = value;
      } else if (flag == "--state-dir") {
        o.state_dir = value;
      } else if (flag == "--commit") {
        o.commit = value;
      } else if (flag == "--source-digest") {
        o.source_digest = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (o.workload != "plan" && o.workload != "execute" && o.workload != "service")
    usage("unknown workload " + o.workload);
  if (!(o.seconds > 0)) usage("--seconds must be positive");
  if (o.out_dir.empty() || o.state_dir.empty()) usage("--out-dir and --state-dir are required");
  return o;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex << v;
  return os.str();
}

std::string metrics_json(const std::vector<std::pair<std::string, double>>& values,
                         const MetricDef* defs, std::size_t n) {
  std::string out = "{";
  for (std::size_t i = 0; i < n; ++i) {
    double v = 0.0;
    for (const auto& [name, value] : values) {
      if (name == defs[i].name) v = value;
    }
    out += (i ? ", " : "") + quoted(defs[i].name) + ": {\"value\": " + num(v) +
           ", \"unit\": " + quoted(defs[i].unit) + "}";
  }
  return out + "}";
}

/// Digest recorded by the other trace mode of the same workload, seed and
/// sources, if that run's record exists.
std::string other_mode_digest(const Options& o) {
  const std::string path = o.out_dir + "/" + o.workload + "-seed" +
                           std::to_string(o.seed) + "-trace" + (o.trace ? "0" : "1") +
                           ".json";
  std::ifstream in(path);
  if (!in) return "";
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  auto field = [&](const std::string& key) -> std::string {
    const std::string tag = "\"" + key + "\": \"";
    const auto at = text.find(tag);
    if (at == std::string::npos) return "";
    const auto end = text.find('"', at + tag.size());
    return text.substr(at + tag.size(), end - at - tag.size());
  };
  if (field("source_digest") != o.source_digest || o.source_digest == "unknown") return "";
  return field("digest");
}

int run(const Options& o) {
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::cerr << "expert_perfbench: refusing to report metrics from a "
              << PERFBENCH_BUILD_TYPE << " build (Release required)\n";
    return 1;
  }
  std::filesystem::create_directories(o.out_dir);
  std::filesystem::create_directories(o.state_dir);

  const double ref_start_ms = host_ref_ms();
  RunRecord record;
  std::unique_ptr<Workload> workload;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    workload.reset();
    const auto t0 = Clock::now();
    if (o.workload == "plan") {
      workload = make_plan(o, record);
    } else if (o.workload == "execute") {
      workload = make_execute(o, record);
    } else {
      workload = make_service(o, record, rep);
    }
    workload->setup();
    record.setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  Tracer& tracer = Tracer::get();
  auto& registry = expert::obs::Registry::global();
  const auto loop_start = Clock::now();
  for (std::uint64_t step = 0;; ++step) {
    const bool traced = o.trace && step % 2 == 1;
    tracer.set_op(step);
    tracer.set_on(traced);
    registry.set_enabled(traced);
    record.timed_s += workload->step(traced);
    tracer.set_on(false);
    registry.set_enabled(false);
    if (seconds_between(loop_start, Clock::now()) >= kWallCapS) break;
    if (record.timed_s >= o.seconds && record.ops >= kMinOps) break;
  }
  workload->finish(o.trace);
  workload.reset();
  const double ref_end_ms = host_ref_ms();

  // Output checks.
  if (record.digested < kDigestOps) record.fail("fewer ops than the output digest covers");
  const std::uint64_t digest = record.digest.digest();
  if (o.seed == kDefaultSeed) {
    for (const auto& pin : kPinnedDigests) {
      if (o.workload == pin.workload && pin.digest != digest) {
        record.fail("output digest " + hex(digest) + " differs from the pinned " +
                    hex(pin.digest));
      }
    }
  }
  const std::string other = other_mode_digest(o);
  if (!other.empty() && other != hex(digest)) {
    record.fail("output digest " + hex(digest) + " differs from the other trace mode's " +
                other);
  }

  // End-to-end metrics (untraced ops only).
  std::vector<double> tenant_s = record.tenant_s;
  if (tenant_s.empty()) {
    // A single client waits for exactly one op per request.
    for (double ms : record.op_ms) tenant_s.push_back(ms / 1e3);
  }
  const double op_p50 = quantile(record.op_ms, 0.5);
  const std::vector<std::pair<std::string, double>> e2e = {
      {"setup_s", median(record.setup_s)},
      {"op_ms.p50", op_p50},
      {"op_ms.p90", quantile(record.op_ms, 0.9)},
      {"ops_per_s", record.timed_s > 0 ? static_cast<double>(record.ops) / record.timed_s : 0},
      {"peak_rss_mb", std::max(self_peak_rss_mb(), record.worker_peak_rss_mb)},
      {"tenant_s.p50", median(tenant_s)},
  };

  // Per-layer metrics (traced runs).
  std::vector<std::pair<std::string, double>> layers;
  std::map<std::string, double> self_ms;
  if (o.trace) {
    for (const auto& [name, samples] : record.layer_samples) {
      if (!record.layer_values.count(name)) layers.emplace_back(name, median(samples));
    }
    for (const auto& [name, value] : record.layer_values) layers.emplace_back(name, value);
    for (const auto& [metric, span] : kSpanMetrics) {
      const auto d = tracer.durations_ms(span);
      if (!d.empty()) layers.emplace_back(metric, median(d));
    }
    const double traced_p50 = quantile(record.traced_op_ms, 0.5);
    layers.emplace_back("obs.trace_overhead_ratio", op_p50 > 0 ? traced_p50 / op_p50 : 0.0);
    record.bases["obs.trace_overhead_ratio"] =
        "traced op p50 " + num(traced_p50) + " ms (" +
        std::to_string(record.traced_op_ms.size()) + " ops) / untraced op p50 " +
        num(op_p50) + " ms (" + std::to_string(record.op_ms.size()) + " ops)";
    layers.emplace_back("host.ref_ms", (ref_start_ms + ref_end_ms) / 2.0);
    self_ms = tracer.layer_self_ms();
    tracer.write_chrome_trace(o.out_dir + "/" + o.workload + "-seed" +
                              std::to_string(o.seed) + ".trace.json");
  }

  // Human-readable report.
  const double fail_ratio = record.attempted
                                ? static_cast<double>(record.failed) /
                                      static_cast<double>(record.attempted)
                                : 1.0;
  std::cout << "workload " << o.workload << " seed " << o.seed
            << (o.trace ? " (traced run)" : "") << ": " << record.ops << " ops ("
            << record.op_ms.size() << " untraced, " << record.traced_op_ms.size()
            << " traced) in " << num(record.timed_s) << " s timed\n";
  const auto& shown = o.trace ? layers : e2e;
  const MetricDef* defs = o.trace ? kPerLayer : kEndToEnd;
  const std::size_t ndefs = o.trace ? std::size(kPerLayer) : std::size(kEndToEnd);
  for (std::size_t i = 0; i < ndefs; ++i) {
    double v = 0.0;
    for (const auto& [name, value] : shown) {
      if (name == defs[i].name) v = value;
    }
    std::cout << "  " << defs[i].name << " = " << num(v) << " " << defs[i].unit;
    if (const auto it = record.bases.find(defs[i].name); it != record.bases.end())
      std::cout << "  [" << it->second << "]";
    std::cout << "\n";
  }
  if (!record.tenant_s.empty()) {
    std::cout << "  tenant campaigns completed = " << record.tenant_s.size() << "\n";
  }
  std::cout << "  fail_ratio = " << num(fail_ratio) << " failed/attempted  ["
            << record.failed << " / " << record.attempted << "]\n";
  std::cout << "  set-ups [s]:";
  for (double s : record.setup_s) std::cout << " " << num(s);
  std::cout << "\n";
  for (const auto& [layer, ms] : self_ms) {
    std::cout << "  self time " << layer << " = " << num(ms) << " ms\n";
  }
  for (const auto& f : record.failures) std::cout << "  FAILED: " << f << "\n";

  const unsigned nproc = std::thread::hardware_concurrency();
  std::ostringstream provenance;
  provenance << "{\"build_type\": " << quoted(PERFBENCH_BUILD_TYPE)
             << ", \"compiler\": " << quoted(PERFBENCH_COMPILER)
             << ", \"commit\": " << quoted(o.commit)
             << ", \"source_digest\": " << quoted(o.source_digest)
             << ", \"nproc\": " << nproc << ", \"eval_threads\": " << o.threads
             << ", \"host.ref_ms\": {\"start\": " << num(ref_start_ms)
             << ", \"end\": " << num(ref_end_ms) << "}}";
  std::cout << "provenance " << provenance.str() << "\n";

  const bool correct = record.failed == 0;
  std::ostringstream result;
  result << "{\"correct\": " << (correct ? "true" : "false")
         << ", \"attempted\": " << std::max<std::uint64_t>(record.attempted, 1)
         << ", \"failed\": " << record.failed << ", \"metrics\": "
         << (o.trace ? metrics_json(layers, kPerLayer, std::size(kPerLayer))
                     : metrics_json(e2e, kEndToEnd, std::size(kEndToEnd)))
         << "}";

  std::ofstream file(o.out_dir + "/" + o.workload + "-seed" + std::to_string(o.seed) +
                     "-trace" + (o.trace ? "1" : "0") + ".json");
  file << "{\"workload\": " << quoted(o.workload) << ", \"seed\": " << o.seed
       << ", \"trace\": " << (o.trace ? 1 : 0) << ", \"source_digest\": "
       << quoted(o.source_digest) << ", \"digest\": " << quoted(hex(digest))
       << ", \"provenance\": " << provenance.str() << ", \"ops\": " << record.ops
       << ", \"fail_ratio\": " << num(fail_ratio) << ", \"result\": " << result.str()
       << ", \"bases\": {";
  bool first = true;
  for (const auto& [name, base] : record.bases) {
    file << (first ? "" : ", ") << quoted(name) << ": " << quoted(base);
    first = false;
  }
  auto samples = [&file](const char* key, const std::vector<double>& values) {
    file << ", " << quoted(key) << ": [";
    for (std::size_t i = 0; i < values.size(); ++i) file << (i ? ", " : "") << num(values[i]);
    file << "]";
  };
  file << "}";
  samples("setup_s", record.setup_s);
  samples("op_ms", record.op_ms);
  samples("traced_op_ms", record.traced_op_ms);
  samples("tenant_s", record.tenant_s);
  file << ", \"self_ms\": {";
  first = true;
  for (const auto& [layer, ms] : self_ms) {
    file << (first ? "" : ", ") << quoted(layer) << ": " << num(ms);
    first = false;
  }
  file << "}}\n";

  std::cout << result.str() << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::process_start();
  if (argc == 4 && std::strcmp(argv[1], "--worker") == 0) {
    return perfbench::execute_worker_main(argv[2], std::stoull(argv[3]));
  }
  perfbench::Options options = perfbench::parse(argc, argv);
  options.self_exe = std::filesystem::read_symlink("/proc/self/exe").string();
  options.threads = std::max(1u, std::thread::hardware_concurrency());
  try {
    return perfbench::run(options);
  } catch (const std::exception& e) {
    std::cerr << "expert_perfbench: " << e.what() << "\n";
    return 1;
  }
}
