/// \file test_arena.cpp
/// \brief Unit tests for the util memory layer: refcounted bump-arena
/// chunk recycling and the pooled coroutine-frame allocator
/// (util/arena.hpp), plus the FlatMap the engine interns its
/// channel/counter tables with (util/flat_map.hpp).

#include <gtest/gtest.h>

#include <cstring>
#include <deque>
#include <latch>
#include <thread>
#include <vector>

#include "util/arena.hpp"
#include "util/flat_map.hpp"

namespace {

TEST(Arena, BumpsWithinOneChunk) {
  util::Arena a(1024);
  auto a1 = a.allocate(100);
  auto a2 = a.allocate(100);
  ASSERT_NE(a1.data, nullptr);
  ASSERT_NE(a2.data, nullptr);
  EXPECT_EQ(a1.chunk, a2.chunk);
  // Second allocation bumps within the same chunk, 8-byte aligned.
  EXPECT_EQ(a2.data - a1.data, 104);
  EXPECT_EQ(a.stats().chunks, 1u);
  EXPECT_EQ(a.stats().allocs, 2u);
}

TEST(Arena, RecyclesFullyReleasedChunks) {
  util::Arena a(1024);
  auto a1 = a.allocate(600);
  auto a2 = a.allocate(600);  // 1200 > 1024: forces a second chunk
  EXPECT_NE(a1.chunk, a2.chunk);
  EXPECT_EQ(a.stats().chunks, 2u);
  util::Arena::release(a1.chunk);
  // The released chunk is reused instead of growing the arena.
  auto a3 = a.allocate(600);
  EXPECT_EQ(a3.chunk, a1.chunk);
  EXPECT_EQ(a3.data, a1.data);
  EXPECT_EQ(a.stats().chunks, 2u);
  EXPECT_EQ(a.stats().recycles, 1u);
}

TEST(Arena, LiveChunksAreNeverRecycled) {
  util::Arena a(256);
  auto p = a.allocate(200);
  std::memset(p.data, 0x5A, 200);
  std::vector<util::Arena::Alloc> held;
  for (int i = 0; i < 64; ++i) held.push_back(a.allocate(200));
  // Unreleased blocks stay intact while the arena grows around them.
  for (int i = 0; i < 200; ++i) EXPECT_EQ(p.data[i], std::byte{0x5A});
  EXPECT_EQ(a.stats().recycles, 0u);
}

TEST(Arena, OversizedPayloadSpillsIntoDedicatedChunk) {
  util::Arena a(256);
  auto small = a.allocate(64);
  auto big = a.allocate(10000);  // > chunk size: dedicated chunk
  ASSERT_NE(big.data, nullptr);
  EXPECT_NE(big.chunk, small.chunk);
  std::memset(big.data, 1, 10000);
  EXPECT_EQ(a.stats().chunks, 2u);
  EXPECT_GE(a.stats().capacity_bytes, 10000u + 256u);
  // Once released, the spill chunk recycles like any other.
  util::Arena::release(big.chunk);
  auto big2 = a.allocate(10000);
  EXPECT_EQ(big2.data, big.data);
  EXPECT_EQ(a.stats().chunks, 2u);
}

TEST(Arena, SteadySendReceivePipelineStopsGrowing) {
  // The engine's shape: every iteration allocates payloads and releases
  // the previous iteration's.  Chunk count must stabilize after warm-up.
  util::Arena a(1024);
  std::deque<util::Arena::Alloc> inflight;
  auto iteration = [&] {
    for (int m = 0; m < 7; ++m) inflight.push_back(a.allocate(100 + 40 * m));
    while (inflight.size() > 7) {
      util::Arena::release(inflight.front().chunk);
      inflight.pop_front();
    }
  };
  // Warm-up long enough for block placement to settle into its cycle
  // (recycled chunks restart their bump, so placement drifts for a few
  // rounds before repeating).
  for (int i = 0; i < 20; ++i) iteration();
  const auto chunks = a.stats().chunks;
  for (int i = 0; i < 200; ++i) iteration();
  EXPECT_EQ(a.stats().chunks, chunks) << "steady pipeline must not grow";
  EXPECT_GT(a.stats().recycles, 0u);
}

TEST(Arena, HardResetRewindsEverything) {
  util::Arena a(1024);
  auto p = a.allocate(600);
  a.allocate(600);
  EXPECT_FALSE(a.clean());
  a.reset();
  EXPECT_TRUE(a.clean());
  EXPECT_EQ(a.allocate(600).data, p.data);
  EXPECT_EQ(a.stats().chunks, 2u);
}

TEST(Arena, ReleaseFromAnotherThreadEnablesRecycling) {
  util::Arena a(256);
  auto p = a.allocate(200);
  std::thread t([&] { util::Arena::release(p.chunk); });
  t.join();
  auto q = a.allocate(200);  // 408 > 256 would need a chunk; recycled instead
  EXPECT_EQ(q.chunk, p.chunk);
  EXPECT_EQ(a.stats().chunks, 1u);
}

TEST(FramePool, ReusesFreedBlocks) {
  // Warm one block of an uncommon size, then cycle it: mallocs must not
  // advance after the warm-up.
  constexpr std::size_t kSize = 333;
  void* p = util::frame_alloc(kSize);
  util::frame_free(p, kSize);
  const auto mallocs = util::frame_pool_mallocs();
  const auto reuses = util::frame_pool_reuses();
  for (int i = 0; i < 100; ++i) {
    void* q = util::frame_alloc(kSize);
    EXPECT_EQ(q, p) << "same bucketed block must come back";
    util::frame_free(q, kSize);
  }
  EXPECT_EQ(util::frame_pool_mallocs(), mallocs);
  EXPECT_EQ(util::frame_pool_reuses(), reuses + 100);
}

TEST(FramePool, BlocksSurviveThreadExit) {
  // A block freed by a dying thread drains to the process-wide reservoir
  // and must be reusable from this thread without a new malloc.
  constexpr std::size_t kSize = 777;
  void* from_thread = nullptr;
  std::thread t([&] { from_thread = util::frame_alloc(kSize); });
  t.join();
  ASSERT_NE(from_thread, nullptr);
  std::thread t2([&] { util::frame_free(from_thread, kSize); });
  t2.join();
  const auto mallocs = util::frame_pool_mallocs();
  void* p = util::frame_alloc(kSize);
  EXPECT_EQ(util::frame_pool_mallocs(), mallocs)
      << "reservoir refill, not malloc";
  util::frame_free(p, kSize);
}

TEST(FramePool, PerRunWorkerThreadsDoNotGrowThePool) {
  // The engine starts fresh worker threads on every run.  Each round here
  // does the same: 4 new threads each hold 500 frames at once, free them,
  // and exit (draining their caches to the reservoir).  Once round 1 has
  // sized the pool, later rounds must be served from it; a refill that
  // hands one thread the whole reservoir makes the others malloc anew,
  // and the pool grows by their working set every round.
  constexpr std::size_t kSize = 256;
  constexpr int kThreads = 4;
  constexpr int kFrames = 500;
  constexpr int kRounds = 8;
  std::vector<std::uint64_t> mallocs;
  for (int round = 0; round < kRounds; ++round) {
    std::latch all_allocated(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
      threads.emplace_back([&] {
        std::vector<void*> frames;
        for (int i = 0; i < kFrames; ++i)
          frames.push_back(util::frame_alloc(kSize));
        all_allocated.arrive_and_wait();
        for (void* p : frames) util::frame_free(p, kSize);
      });
    for (auto& th : threads) th.join();
    mallocs.push_back(util::frame_pool_mallocs());
  }
  EXPECT_LT(mallocs[7] - mallocs[1], 500u)
      << "pool grew from " << mallocs[1] << " to " << mallocs[7]
      << " blocks over rounds 1..7";
}

TEST(FramePool, OversizedFallsBackToPlainNew) {
  void* p = util::frame_alloc(1 << 20);
  ASSERT_NE(p, nullptr);
  std::memset(p, 0, 1 << 20);
  util::frame_free(p, 1 << 20);
}

TEST(FlatMap, InsertsSortedAndFinds) {
  util::FlatMap<int, int> m;
  for (int k : {5, 1, 9, 3, 7}) m[k] = k * 10;
  EXPECT_EQ(m.size(), 5u);
  int prev = -1;
  for (const auto& [k, v] : m) {
    EXPECT_GT(k, prev);  // iteration is sorted
    EXPECT_EQ(v, k * 10);
    prev = k;
  }
  EXPECT_EQ(*m.find(7), 70);
  EXPECT_EQ(m.find(8), nullptr);
  // operator[] default-inserts exactly once.
  EXPECT_EQ(m[8], 0);
  m[8]++;
  EXPECT_EQ(m[8], 1);
  EXPECT_EQ(m.size(), 6u);
}

}  // namespace
