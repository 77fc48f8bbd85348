// P2PDT_THREADS is read once, on first use. tests/CMakeLists.txt runs this
// binary under P2PDT_THREADS=-1, and the one case asks for the resolved
// concurrency before anything builds the global pool, so it starts no
// thread whatever the parse gives.

#include <cstdlib>
#include <thread>

#include <gtest/gtest.h>

#include "common/thread_pool.h"

namespace p2pdt {
namespace {

TEST(ThreadPoolEnvironmentTest, SignedCountFallsBackToHardwareConcurrency) {
  const char* env = std::getenv("P2PDT_THREADS");
  ASSERT_NE(env, nullptr);
  ASSERT_STREQ(env, "-1");
  // Only decimal digits make a count; a sign is garbage, not a wrapped
  // ULONG_MAX clamped to 256.
  const unsigned hc = std::thread::hardware_concurrency();
  EXPECT_EQ(ThreadPool::GlobalConcurrency(), hc > 0 ? hc : 1u);
}

}  // namespace
}  // namespace p2pdt
