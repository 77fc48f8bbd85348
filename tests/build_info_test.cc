// The build stamps the commit its sources are at: BuildInfo's git SHA is
// resolved when the build runs, not when it was configured.

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "common/build_info.h"

namespace p2pdt {
namespace {

// `git rev-parse --short=12 HEAD` in the source tree, or "" where git or
// the repository is unavailable.
std::string SourceHead() {
  const std::string cmd = std::string("git -C \"") + P2PDT_SOURCE_DIR +
                          "\" rev-parse --short=12 HEAD 2>/dev/null";
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return "";
  std::string out;
  char buf[64];
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) out += buf;
  if (pclose(pipe) != 0) return "";
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  return out;
}

TEST(BuildInfoTest, GitShaIsTheSourceTreesHead) {
  const std::string head = SourceHead();
  if (head.empty()) {
    GTEST_SKIP() << "git or the source repository is unavailable";
  }
  EXPECT_EQ(BuildInfo::Current().git_sha, head);
}

}  // namespace
}  // namespace p2pdt
