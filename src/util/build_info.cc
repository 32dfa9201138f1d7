#include "util/build_info.h"

#include "svc/protocol.h"

namespace melody::util {

FormatVersions format_versions() noexcept {
  // The snapshot/checkpoint/trace/migration constants live as file-local
  // details of their writers; test_svc_formats pins these mirrors against
  // the version field of the bytes each writer emits, so a version bump
  // cannot drift silently.
  return FormatVersions{
      .proto = svc::kProtoVersion,
      .snapshot = 3,
      .service_checkpoint = 3,
      .composed_checkpoint = 2,
      .trace = 1,
      .migration = 1,
  };
}

std::string build_git_sha() {
#ifdef MELODY_GIT_SHA
  return MELODY_GIT_SHA;
#else
  return "unknown";
#endif
}

std::string build_info_line(const std::string& tool) {
  const FormatVersions v = format_versions();
  return tool + " " + build_git_sha() + " proto=" + std::to_string(v.proto) +
         " snapshot=" + std::to_string(v.snapshot) +
         " checkpoint=" + std::to_string(v.service_checkpoint) +
         " composed=" + std::to_string(v.composed_checkpoint) +
         " trace=" + std::to_string(v.trace) +
         " migration=" + std::to_string(v.migration);
}

}  // namespace melody::util
