#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "expert/service/tenant.hpp"

namespace expert::service {

/// One tenant as persisted in the service manifest: the full spec, its
/// lifecycle phase, and — for terminal phases — how it ended and how many
/// BoTs it got through. For Active tenants the per-tenant journal (not the
/// manifest) is the source of truth for progress; `bots_done` is
/// meaningful only once the tenant is terminal.
struct ManifestEntry {
  TenantSpec spec;
  TenantPhase phase = TenantPhase::Queued;
  std::optional<TerminationCause> termination;
  std::uint64_t bots_done = 0;
};

/// The service's durable tenant registry, in admission order. Together
/// with the per-tenant journals this is everything CampaignService::resume
/// needs: the manifest says *which* tenants exist and where each stands in
/// its lifecycle; each active tenant's journal replays its exact campaign
/// state.
struct Manifest {
  std::vector<ManifestEntry> entries;
};

/// Salt of the manifest's record-line checksum; it differs from the
/// journal's, so a journal line pasted into a manifest does not verify.
inline constexpr std::uint64_t kManifestChecksumSalt = 0x5E4F1CE3A21ULL;

/// Format (docs/service.md): the campaign journal's record lines
/// (resilience::serial::append_record_line under kManifestChecksumSalt): a
/// header line binding the file to the service's scheduling digest, then
/// one tenant record per line, its fields read in the order they are
/// written. Unlike the append-only journal the manifest is small and
/// rewritten whole via util::atomic_write on every lifecycle transition, so
/// a crash leaves either the previous or the next registry — never a torn
/// one. Any checksum or grammar error on read throws: refusing to guess
/// beats resuming the wrong tenant set.
void write_manifest(const std::string& path, const Manifest& manifest,
                    std::uint64_t scheduling_digest);

/// Parse and validate the manifest at `path`. Throws
/// util::ContractViolation on a missing file, a scheduling-digest mismatch
/// (the service was reconfigured — its DRR schedule would diverge from the
/// journaled history), corruption, or a per-tenant options-digest mismatch
/// (the spec-to-options mapping changed underneath persisted state).
Manifest read_manifest(const std::string& path,
                       std::uint64_t scheduling_digest);

}  // namespace expert::service
