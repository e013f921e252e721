// Thread-pool tests: fork/join semantics, lane reuse, shared-cursor work
// distribution (the pattern SimFarm workers use to claim instances), and
// the ESSENT_THREADS default. Labelled `pool` so the tsan preset runs them.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>

#include "support/threadpool.h"

namespace essent {
namespace {

using support::ThreadPool;

// --- ThreadPool -----------------------------------------------------------

TEST(ThreadPool, SingleLaneRunsInlineOnCaller) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.numThreads(), 1u);
  unsigned ran = 0;
  std::thread::id caller = std::this_thread::get_id();
  pool.run([&](unsigned lane) {
    EXPECT_EQ(lane, 0u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ran++;
  });
  EXPECT_EQ(ran, 1u);
}

TEST(ThreadPool, EveryLaneRunsExactlyOncePerFork) {
  ThreadPool pool(4);
  std::vector<std::atomic<uint32_t>> hits(4);
  pool.run([&](unsigned lane) { hits[lane].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1u);
}

TEST(ThreadPool, ReusableAcrossManyForksWithFullJoin) {
  // The join barrier must be complete: after run() returns, every lane's
  // side effects are visible. 2000 forks also exercises the epoch
  // spin/yield/park transitions repeatedly.
  ThreadPool pool(3);
  uint64_t total = 0;
  std::vector<uint64_t> laneSum(3, 0);
  for (uint64_t f = 0; f < 2000; f++) {
    pool.run([&, f](unsigned lane) { laneSum[lane] += f; });
    total += 3 * f;  // plain reads: join is the synchronization point
    uint64_t sum = laneSum[0] + laneSum[1] + laneSum[2];
    ASSERT_EQ(sum, total) << "fork " << f;
  }
}

TEST(ThreadPool, SharedCursorDistributesAllItems) {
  ThreadPool pool(4);
  constexpr size_t kItems = 10000;
  std::vector<uint8_t> claimed(kItems, 0);
  std::atomic<size_t> cursor{0};
  pool.run([&](unsigned) {
    for (;;) {
      size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= kItems) return;
      claimed[i]++;
    }
  });
  for (size_t i = 0; i < kItems; i++) ASSERT_EQ(claimed[i], 1) << i;
}

TEST(ThreadPool, DefaultThreadCountHonorsEnv) {
  setenv("ESSENT_THREADS", "3", 1);
  EXPECT_EQ(ThreadPool::defaultThreadCount(), 3u);
  unsetenv("ESSENT_THREADS");
  EXPECT_GE(ThreadPool::defaultThreadCount(), 1u);
}

}  // namespace
}  // namespace essent
