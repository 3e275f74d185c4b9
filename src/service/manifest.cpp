#include "expert/service/manifest.hpp"

#include <fstream>
#include <optional>
#include <sstream>
#include <string_view>

#include "expert/resilience/journal.hpp"
#include "expert/resilience/serial.hpp"
#include "expert/util/assert.hpp"
#include "expert/util/atomic_write.hpp"

namespace expert::service {

namespace {

namespace ser = resilience::serial;

std::string header_payload(std::uint64_t scheduling_digest) {
  return "svc-manifest v1 options=" + ser::fmt_hex16(scheduling_digest);
}

std::string entry_payload(const ManifestEntry& entry) {
  const TenantSpec& s = entry.spec;
  std::string out = "tenant id=";
  ser::append_escaped(out, s.id);
  out += " phase=";
  out += to_string(entry.phase);
  out += " cause=";
  out += entry.termination ? to_string(*entry.termination) : "-";
  out += " done=";
  ser::append_u64(out, entry.bots_done);
  out += " digest=";
  out += ser::fmt_hex16(
      resilience::campaign_options_digest(campaign_options_for(s)));
  out += " utility=";
  ser::append_escaped(out, s.utility);
  out += s.drift ? " drift=1" : " drift=0";
  out += " seed=";
  ser::append_u64(out, s.seed);
  out += " mean=";
  ser::append_double(out, s.mean_cpu);
  out += " min=";
  ser::append_double(out, s.min_cpu);
  out += " max=";
  ser::append_double(out, s.max_cpu);
  out += " density=";
  ser::append_u64(out, s.sampling_density);
  out += " window=";
  ser::append_u64(out, s.history_window);
  out += " reps=";
  ser::append_u64(out, s.repetitions);
  out += " retries=";
  ser::append_u64(out, s.max_backend_retries);
  out += " qunits=";
  ser::append_u64(out, s.quotas.max_eval_units);
  out += " qwall=";
  ser::append_double(out, s.quotas.max_wall_seconds);
  out += " qbytes=";
  ser::append_u64(out, s.quotas.max_journal_bytes);
  out += " bots=";
  for (std::size_t i = 0; i < s.bots.size(); ++i) {
    if (i > 0) out += ',';
    ser::append_u64(out, s.bots[i].tasks);
    out += ':';
    ser::append_u64(out, s.bots[i].seed);
  }
  return out;
}

/// Decode one tenant record in a single pass, each field in the order
/// entry_payload writes it.
ManifestEntry parse_entry(std::string_view payload) {
  ser::Reader in(payload);
  EXPERT_REQUIRE(in.consume("tenant "), "manifest: expected a tenant record");
  ManifestEntry entry;
  TenantSpec& s = entry.spec;
  in.expect("id=");
  s.id = ser::unescape(in.until(' '));
  in.expect(" phase=");
  entry.phase = tenant_phase_from_string(std::string(in.until(' ')));
  in.expect(" cause=");
  if (const std::string_view cause = in.until(' '); cause != "-") {
    entry.termination = termination_cause_from_string(std::string(cause));
  }
  in.expect(" done=");
  entry.bots_done = in.u64();
  in.expect(" digest=");
  const std::uint64_t options_digest = ser::parse_u64(in.until(' '), 16);
  in.expect(" utility=");
  s.utility = ser::unescape(in.until(' '));
  in.expect(" drift=");
  s.drift = in.flag();
  in.expect(" seed=");
  s.seed = in.u64();
  in.expect(" mean=");
  s.mean_cpu = in.real();
  in.expect(" min=");
  s.min_cpu = in.real();
  in.expect(" max=");
  s.max_cpu = in.real();
  in.expect(" density=");
  s.sampling_density = static_cast<std::size_t>(in.u64());
  in.expect(" window=");
  s.history_window = static_cast<std::size_t>(in.u64());
  in.expect(" reps=");
  s.repetitions = static_cast<std::size_t>(in.u64());
  in.expect(" retries=");
  s.max_backend_retries = static_cast<std::size_t>(in.u64());
  in.expect(" qunits=");
  s.quotas.max_eval_units = in.u64();
  in.expect(" qwall=");
  s.quotas.max_wall_seconds = in.real();
  in.expect(" qbytes=");
  s.quotas.max_journal_bytes = in.u64();
  in.expect(" bots=");
  do {
    BotSpec bot;
    bot.tasks = static_cast<std::size_t>(in.u64());
    in.expect(':');
    bot.seed = in.u64();
    s.bots.push_back(bot);
  } while (in.consume(','));
  in.finish();

  const std::string error = validate_spec(s);
  EXPERT_REQUIRE(error.empty(), "manifest: invalid tenant spec: " + error);
  // Cross-check the persisted options digest: a mismatch means the
  // spec-to-options mapping changed since the manifest was written, and a
  // resumed campaign would silently diverge from its journal.
  EXPERT_REQUIRE(
      options_digest ==
          resilience::campaign_options_digest(campaign_options_for(s)),
      "manifest: tenant '" + s.id +
          "' was persisted under a different campaign-options mapping");
  EXPERT_REQUIRE(entry.phase != TenantPhase::Terminated || entry.termination,
                 "manifest: terminated tenant without a cause");
  return entry;
}

}  // namespace

void write_manifest(const std::string& path, const Manifest& manifest,
                    std::uint64_t scheduling_digest) {
  std::string contents;
  ser::append_record_line(contents, kManifestChecksumSalt,
                          header_payload(scheduling_digest));
  for (const ManifestEntry& entry : manifest.entries) {
    ser::append_record_line(contents, kManifestChecksumSalt,
                            entry_payload(entry));
  }
  util::atomic_write(path, contents);
}

Manifest read_manifest(const std::string& path,
                       std::uint64_t scheduling_digest) {
  std::ifstream in(path, std::ios::binary);
  EXPERT_REQUIRE(in.is_open(), "manifest: cannot read " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string contents = buffer.str();
  in.close();

  Manifest manifest;
  bool saw_header = false;
  const std::string_view all(contents);
  std::size_t pos = 0;
  while (pos < all.size()) {
    const std::size_t end = all.find('\n', pos);
    EXPERT_REQUIRE(end != std::string_view::npos,
                   "manifest: truncated final line in " + path);
    // The manifest is atomically replaced as a whole, so unlike the
    // journal there is no benign torn tail: any bad line is corruption.
    const std::optional<std::string_view> payload = ser::record_line_payload(
        all.substr(pos, end - pos), kManifestChecksumSalt);
    EXPERT_REQUIRE(payload.has_value(),
                   "manifest: corrupt line in " + path);
    pos = end + 1;

    if (!saw_header) {
      EXPERT_REQUIRE(*payload == header_payload(scheduling_digest),
                     "manifest: header mismatch in " + path +
                         " (service scheduling options changed?)");
      saw_header = true;
      continue;
    }
    manifest.entries.push_back(parse_entry(*payload));
  }
  EXPERT_REQUIRE(saw_header, "manifest: empty file " + path);
  return manifest;
}

}  // namespace expert::service
