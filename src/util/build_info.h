// Build identification for the CLI tools: one shared --version line so
// chaos/migration logs (and bug reports) pin exactly which build and which
// on-disk/wire format versions produced an artifact.
#pragma once

#include <string>

namespace melody::util {

/// The format versions this build reads and writes, gathered in one place.
struct FormatVersions {
  int proto;                // svc wire protocol (svc/protocol.h)
  int snapshot;             // MLDYCKPT platform snapshot (sim/snapshot.cc)
  int service_checkpoint;   // MLDYSVCK shard body (svc/service.cc)
  int composed_checkpoint;  // MLDYSVCK composed router container (router.cc)
  int trace;                // MLDYTRC wire trace (svc/trace_log.cc)
  int migration;            // MLDYMIGR live-migration envelope (service.cc)
};

FormatVersions format_versions() noexcept;

/// The git sha this binary was built from ("unknown" outside a checkout).
std::string build_git_sha();

/// The one-line --version output, e.g. (wrapped here for width)
///   melody_serve 1a2b3c4 proto=5 snapshot=3 checkpoint=3 composed=2
///   trace=1 migration=1
std::string build_info_line(const std::string& tool);

}  // namespace melody::util
