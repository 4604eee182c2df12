#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/env.h"
#include "tests/testing/util.h"

// Multi-reader stress tests for the sharded BufferPool.  The pool's contract
// is single-writer / multi-reader: any number of threads may Fetch / read /
// Release concurrently as long as no thread mutates pages.  These tests are
// the TSan targets for the storage layer (ctest -R Concurrent).

namespace ode {
namespace {

class BufferPoolConcurrentTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto disk = DiskManager::Open(&env_, "/db");
    ASSERT_TRUE(disk.ok());
    disk_ = std::move(*disk);
  }

  /// Seeds page `id` with a payload derived from its id so a reader can
  /// verify it got the right bytes no matter which thread faulted it in.
  void SeedPage(PageId id) {
    char buf[kPageSize] = {};
    const std::string text = PageText(id);
    std::memcpy(buf, text.data(), text.size());
    ASSERT_OK(disk_->WritePage(id, buf));
  }

  static std::string PageText(PageId id) {
    return "page-" + std::to_string(id) + "-payload";
  }

  /// Counter `name` as the pools' pull hooks report it.
  uint64_t Count(const char* name) const {
    return registry_.SnapshotAll().counter(name);
  }

  MemEnv env_;
  std::unique_ptr<DiskManager> disk_;
  MetricsRegistry registry_;  // Outlives the pools publishing into it.
};

TEST_F(BufferPoolConcurrentTest, ConcurrentFetchAllResident) {
  constexpr PageId kPages = 32;
  constexpr int kThreads = 8;
  constexpr int kItersPerThread = 2000;
  for (PageId id = 1; id <= kPages; ++id) SeedPage(id);

  // Capacity exceeds the working set: after warm-up everything is a hit and
  // threads only contend on shard mutexes and the LRU lists.
  BufferPool pool(disk_.get(), /*capacity_pages=*/64, /*shards=*/4,
                  &registry_);

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kItersPerThread; ++i) {
        const PageId id = 1 + static_cast<PageId>((t * 31 + i) % kPages);
        auto handle = pool.Fetch(id);
        if (!handle.ok()) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        const std::string want = PageText(id);
        if (std::memcmp(handle->data(), want.data(), want.size()) != 0) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(mismatches.load(), 0);
  // Every fetch is accounted exactly once even under contention.
  EXPECT_EQ(Count("bufferpool.hits") + Count("bufferpool.misses"),
            static_cast<uint64_t>(kThreads) * kItersPerThread);
  EXPECT_GE(Count("bufferpool.misses"), static_cast<uint64_t>(kPages));
}

TEST_F(BufferPoolConcurrentTest, ConcurrentFetchUnderEvictionPressure) {
  constexpr PageId kPages = 64;
  constexpr int kThreads = 8;
  constexpr int kItersPerThread = 1500;
  for (PageId id = 1; id <= kPages; ++id) SeedPage(id);

  // Capacity far below the working set: threads constantly evict each
  // other's pages and re-fault them from disk.
  BufferPool pool(disk_.get(), /*capacity_pages=*/8, /*shards=*/4,
                  &registry_);

  std::atomic<int> mismatches{0};
  std::atomic<int> fetch_errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kItersPerThread; ++i) {
        const PageId id = 1 + static_cast<PageId>((t * 17 + i * 7) % kPages);
        auto handle = pool.Fetch(id);
        if (!handle.ok()) {
          fetch_errors.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        const std::string want = PageText(id);
        if (std::memcmp(handle->data(), want.data(), want.size()) != 0) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(fetch_errors.load(), 0);
  EXPECT_GT(Count("bufferpool.evictions"), 0u);
  // A shard may end over its capacity slice if the final concurrent fetches
  // hit it while every frame was pinned; one quiescent fetch per shard
  // drains that transient overage, after which residency must respect the
  // budget again.
  for (PageId id = 1; id <= 2 * pool.shard_count(); ++id) {
    ASSERT_OK(pool.Fetch(id).status());
  }
  EXPECT_LE(pool.resident_pages(), 8u);
}

TEST_F(BufferPoolConcurrentTest, ConcurrentPinChurnProtectsHeldPages) {
  constexpr PageId kPages = 48;
  constexpr int kThreads = 6;
  constexpr int kItersPerThread = 800;
  for (PageId id = 1; id <= kPages; ++id) SeedPage(id);

  BufferPool pool(disk_.get(), /*capacity_pages=*/12, /*shards=*/4,
                  &registry_);

  // Each thread holds a pinned page while churning through the rest, then
  // re-verifies the held page's bytes: eviction must never reclaim a frame
  // whose pin count another thread just raised.
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kItersPerThread; ++i) {
        const PageId held_id = 1 + static_cast<PageId>((t + i) % kPages);
        auto held = pool.Fetch(held_id);
        if (!held.ok()) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        // Churn a few other pages to create eviction pressure while the
        // handle above stays pinned.
        for (int j = 1; j <= 4; ++j) {
          const PageId other =
              1 + static_cast<PageId>((held_id + j * 5 + t) % kPages);
          auto h = pool.Fetch(other);
          if (!h.ok()) mismatches.fetch_add(1, std::memory_order_relaxed);
        }
        const std::string want = PageText(held_id);
        if (std::memcmp(held->data(), want.data(), want.size()) != 0) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(mismatches.load(), 0);
}

TEST_F(BufferPoolConcurrentTest, SingleShardStillSafeConcurrently) {
  // shards = 1 funnels everything through one mutex; correctness must not
  // depend on striping.
  constexpr PageId kPages = 16;
  for (PageId id = 1; id <= kPages; ++id) SeedPage(id);
  BufferPool pool(disk_.get(), /*capacity_pages=*/4, /*shards=*/1,
                  &registry_);
  ASSERT_EQ(pool.shard_count(), 1u);

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 1000; ++i) {
        const PageId id = 1 + static_cast<PageId>((t + i) % kPages);
        auto handle = pool.Fetch(id);
        if (!handle.ok()) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        const std::string want = PageText(id);
        if (std::memcmp(handle->data(), want.data(), want.size()) != 0) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace ode
