#ifndef P2PDT_COMMON_BUILD_INFO_H_
#define P2PDT_COMMON_BUILD_INFO_H_

#include <string>

namespace p2pdt {

/// Build + runtime provenance stamped into run reports and bench JSON so
/// perf numbers are comparable across commits: a baseline only binds
/// against the toolchain that produced it.
struct BuildInfo {
  std::string git_sha;     ///< HEAD at build time ("unknown" outside git).
  std::string compiler;    ///< e.g. "GNU 13.2.0".
  std::string flags;       ///< CMAKE_CXX_FLAGS + per-config flags.
  std::string build_type;  ///< Release / RelWithDebInfo / Debug.
  std::string sanitizer;   ///< P2PDT_SANITIZE preset ("none" when empty).
  std::string threads;     ///< P2PDT_THREADS env ("auto" when unset).

  /// Compile-time stamps (from CMake) + runtime environment.
  static BuildInfo Current();

  /// One JSON object: {"git_sha":...,"compiler":...,...}.
  std::string ToJson() const;
};

}  // namespace p2pdt

#endif  // P2PDT_COMMON_BUILD_INFO_H_
