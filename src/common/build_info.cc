#include "common/build_info.h"

#include <cstdlib>

#include "common/json_check.h"
#include "git_sha.h"  // generated at build time (src/common/git_sha.cmake)

namespace p2pdt {

// The CMake build scopes these definitions to this one translation unit
// (see src/common/CMakeLists.txt); fallbacks keep ad-hoc builds compiling.
#ifndef P2PDT_BUILD_COMPILER
#define P2PDT_BUILD_COMPILER "unknown"
#endif
#ifndef P2PDT_BUILD_FLAGS
#define P2PDT_BUILD_FLAGS ""
#endif
#ifndef P2PDT_BUILD_TYPE
#define P2PDT_BUILD_TYPE "unknown"
#endif
#ifndef P2PDT_BUILD_SANITIZE
#define P2PDT_BUILD_SANITIZE ""
#endif

BuildInfo BuildInfo::Current() {
  BuildInfo info;
  info.git_sha = P2PDT_BUILD_GIT_SHA;
  info.compiler = P2PDT_BUILD_COMPILER;
  info.flags = P2PDT_BUILD_FLAGS;
  info.build_type = P2PDT_BUILD_TYPE;
  info.sanitizer = P2PDT_BUILD_SANITIZE;
  if (info.sanitizer.empty()) info.sanitizer = "none";
  const char* threads = std::getenv("P2PDT_THREADS");
  info.threads = threads != nullptr && threads[0] != '\0' ? threads : "auto";
  return info;
}

std::string BuildInfo::ToJson() const {
  std::string out = "{";
  out += "\"git_sha\": \"" + JsonEscape(git_sha) + "\"";
  out += ", \"compiler\": \"" + JsonEscape(compiler) + "\"";
  out += ", \"flags\": \"" + JsonEscape(flags) + "\"";
  out += ", \"build_type\": \"" + JsonEscape(build_type) + "\"";
  out += ", \"sanitizer\": \"" + JsonEscape(sanitizer) + "\"";
  out += ", \"threads\": \"" + JsonEscape(threads) + "\"";
  out += "}";
  return out;
}

}  // namespace p2pdt
