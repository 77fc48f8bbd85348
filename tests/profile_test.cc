// PhaseProfiler contract: lexical nesting per thread, self-time
// attribution, the ambient phase prefix, collapsed-stack formatting, and
// strict neutrality when no profiler is installed.

#include "common/profile.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace p2pdt {
namespace {

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) out.push_back(line);
  return out;
}

TEST(PhaseProfilerTest, NoProfilerInstalledIsANoOp) {
  ASSERT_EQ(PhaseProfiler::Current(), nullptr);
  {
    PhaseScope a("orphan");
    PhaseScope b("nested");
  }
  // Installing afterwards shows nothing was recorded anywhere.
  PhaseProfiler profiler;
  ScopedProfiler install(&profiler);
  EXPECT_EQ(profiler.ToCollapsed(), "");
}

TEST(PhaseProfilerTest, InstallReturnsPreviousProfiler) {
  PhaseProfiler a;
  PhaseProfiler b;
  EXPECT_EQ(PhaseProfiler::Install(&a), nullptr);
  EXPECT_EQ(PhaseProfiler::Install(&b), &a);
  EXPECT_EQ(PhaseProfiler::Install(nullptr), &b);
  EXPECT_EQ(PhaseProfiler::Current(), nullptr);
}

TEST(PhaseProfilerTest, ScopesNestLexically) {
  PhaseProfiler profiler;
  {
    ScopedProfiler install(&profiler);
    PhaseScope outer("outer");
    { PhaseScope inner("inner"); }
    { PhaseScope inner("inner"); }
  }
  std::string collapsed = profiler.ToCollapsed();
  EXPECT_NE(collapsed.find("outer;inner "), std::string::npos) << collapsed;
  // The parent line carries self time only; both stacks appear once each
  // (repeat scopes with the same path merge).
  std::vector<std::string> lines = Lines(collapsed);
  ASSERT_EQ(lines.size(), 2u) << collapsed;
  EXPECT_EQ(lines[0].rfind("outer ", 0), 0u) << collapsed;
  EXPECT_EQ(lines[1].rfind("outer;inner ", 0), 0u) << collapsed;
}

TEST(PhaseProfilerTest, AmbientPhaseRootsEveryStack) {
  PhaseProfiler profiler;
  {
    ScopedProfiler install(&profiler);
    profiler.SetPhase("train");
    { PhaseScope s("local_train"); }
    profiler.SetPhase("predict");
    { PhaseScope s("vote"); }
  }
  std::string collapsed = profiler.ToCollapsed();
  EXPECT_NE(collapsed.find("train;local_train "), std::string::npos)
      << collapsed;
  EXPECT_NE(collapsed.find("predict;vote "), std::string::npos) << collapsed;
}

TEST(PhaseProfilerTest, WorkerThreadsKeepIndependentStacks) {
  PhaseProfiler profiler;
  {
    ScopedProfiler install(&profiler);
    profiler.SetPhase("train");
    PhaseScope driver("driver_only");
    std::vector<std::thread> threads;
    for (int i = 0; i < 4; ++i) {
      threads.emplace_back([] { PhaseScope s("worker"); });
    }
    for (auto& t : threads) t.join();
  }
  std::string collapsed = profiler.ToCollapsed();
  // A worker's stack is rooted at the ambient phase, not nested under
  // whatever scope the driver thread happens to hold open.
  EXPECT_NE(collapsed.find("train;worker "), std::string::npos) << collapsed;
  EXPECT_EQ(collapsed.find("driver_only;worker"), std::string::npos)
      << collapsed;
}

TEST(PhaseProfilerTest, CollapsedFormatIsSortedIntegerMicros) {
  PhaseProfiler profiler;
  {
    ScopedProfiler install(&profiler);
    { PhaseScope s("zeta"); }
    { PhaseScope s("alpha"); }
    {
      PhaseScope s("alpha");
      PhaseScope t("beta");
    }
  }
  std::vector<std::string> lines = Lines(profiler.ToCollapsed());
  ASSERT_FALSE(lines.empty());
  std::vector<std::string> stacks;
  for (const std::string& line : lines) {
    auto space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    stacks.push_back(line.substr(0, space));
    std::string value = line.substr(space + 1);
    ASSERT_FALSE(value.empty());
    for (char c : value) EXPECT_TRUE(c >= '0' && c <= '9') << line;
  }
  std::vector<std::string> sorted = stacks;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(stacks, sorted);
}

TEST(PhaseProfilerTest, WriteCollapsedRoundTripsThroughDisk) {
  PhaseProfiler profiler;
  {
    ScopedProfiler install(&profiler);
    PhaseScope s("io");
  }
  std::string path = ::testing::TempDir() + "/flame_test.txt";
  Status s = profiler.WriteCollapsed(path);
  ASSERT_TRUE(s.ok()) << s.ToString();
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), profiler.ToCollapsed());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace p2pdt
