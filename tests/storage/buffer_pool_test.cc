#include "storage/buffer_pool.h"

#include <gtest/gtest.h>

#include <cstring>

#include "storage/disk_manager.h"
#include "storage/env.h"
#include "tests/testing/util.h"

namespace ode {
namespace {

class BufferPoolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto disk = DiskManager::Open(&env_, "/db");
    ASSERT_TRUE(disk.ok());
    disk_ = std::move(*disk);
  }

  /// Writes a page directly to disk with its first bytes = `text`.
  void SeedPage(PageId id, const std::string& text) {
    char buf[kPageSize] = {};
    std::memcpy(buf, text.data(), text.size());
    ASSERT_OK(disk_->WritePage(id, buf));
  }

  /// Counter `name` as the pools' pull hooks report it.
  uint64_t Count(const char* name) const {
    return registry_.SnapshotAll().counter(name);
  }

  MemEnv env_;
  std::unique_ptr<DiskManager> disk_;
  MetricsRegistry registry_;  // Outlives the pools publishing into it.
};

TEST_F(BufferPoolTest, FetchReadsFromDisk) {
  SeedPage(3, "hello page");
  BufferPool pool(disk_.get(), 4, /*shards=*/0, &registry_);
  ASSERT_OK_AND_ASSIGN(PageHandle handle, pool.Fetch(3));
  EXPECT_EQ(std::string(handle.data(), 10), "hello page");
  EXPECT_EQ(Count("bufferpool.misses"), 1u);
}

TEST_F(BufferPoolTest, SecondFetchHitsCache) {
  SeedPage(1, "x");
  BufferPool pool(disk_.get(), 4, /*shards=*/0, &registry_);
  { ASSERT_OK_AND_ASSIGN(PageHandle h, pool.Fetch(1)); }
  { ASSERT_OK_AND_ASSIGN(PageHandle h, pool.Fetch(1)); }
  EXPECT_EQ(Count("bufferpool.misses"), 1u);
  EXPECT_EQ(Count("bufferpool.hits"), 1u);
}

TEST_F(BufferPoolTest, EvictionRespectsCapacity) {
  BufferPool pool(disk_.get(), 2, /*shards=*/0, &registry_);
  for (PageId id = 1; id <= 5; ++id) {
    SeedPage(id, "p");
    ASSERT_OK_AND_ASSIGN(PageHandle h, pool.Fetch(id));
  }
  EXPECT_LE(pool.resident_pages(), 2u);
  EXPECT_GE(Count("bufferpool.evictions"), 3u);
}

TEST_F(BufferPoolTest, PinnedPagesAreNotEvicted) {
  BufferPool pool(disk_.get(), 2, /*shards=*/0, &registry_);
  SeedPage(1, "pinned");
  ASSERT_OK_AND_ASSIGN(PageHandle pinned, pool.Fetch(1));
  for (PageId id = 2; id <= 6; ++id) {
    SeedPage(id, "other");
    ASSERT_OK_AND_ASSIGN(PageHandle h, pool.Fetch(id));
  }
  // Pinned page still resident and readable.
  EXPECT_EQ(std::string(pinned.data(), 6), "pinned");
}

TEST_F(BufferPoolTest, DirtyPagesAreNotEvictedOrWrittenByEviction) {
  BufferPool pool(disk_.get(), 2, /*shards=*/0, &registry_);
  pool.BeginEpoch();
  {
    ASSERT_OK_AND_ASSIGN(PageHandle h, pool.Fetch(1));
    std::memcpy(h.mutable_data(), "dirty", 5);
  }
  // Churn through other pages to force eviction pressure.
  for (PageId id = 2; id <= 8; ++id) {
    ASSERT_OK_AND_ASSIGN(PageHandle h, pool.Fetch(id));
  }
  // The dirty page never reached disk.
  char buf[kPageSize];
  ASSERT_OK(disk_->ReadPage(1, buf));
  EXPECT_NE(std::string(buf, 5), "dirty");
  // But it is still resident with its modification.
  ASSERT_OK_AND_ASSIGN(PageHandle h, pool.Fetch(1));
  EXPECT_EQ(std::string(h.data(), 5), "dirty");
}

TEST_F(BufferPoolTest, PreDirtyHookFiresOncePerEpoch) {
  BufferPool pool(disk_.get(), 4, /*shards=*/0, &registry_);
  int calls = 0;
  PageId hook_page = kInvalidPageId;
  bool hook_was_dirty = true;
  pool.set_pre_dirty_hook([&](PageId id, const char*, bool was_dirty) {
    ++calls;
    hook_page = id;
    hook_was_dirty = was_dirty;
  });
  pool.BeginEpoch();
  ASSERT_OK_AND_ASSIGN(PageHandle h, pool.Fetch(2));
  h.mutable_data()[100] = 'a';
  h.mutable_data()[101] = 'b';  // Second modification: no second hook call.
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(hook_page, 2u);
  EXPECT_FALSE(hook_was_dirty);
  EXPECT_EQ(pool.EpochDirtyPages().size(), 1u);
}

TEST_F(BufferPoolTest, HookReportsPreviouslyDirtyPages) {
  BufferPool pool(disk_.get(), 4, /*shards=*/0, &registry_);
  bool was_dirty = false;
  pool.set_pre_dirty_hook(
      [&](PageId, const char*, bool dirty) { was_dirty = dirty; });
  pool.BeginEpoch();
  {
    ASSERT_OK_AND_ASSIGN(PageHandle h, pool.Fetch(1));
    h.mutable_data()[0] = 'x';
  }
  pool.CommitEpoch();
  // Second epoch re-dirties the same (still dirty, unflushed) page.
  pool.BeginEpoch();
  ASSERT_OK_AND_ASSIGN(PageHandle h, pool.Fetch(1));
  h.mutable_data()[1] = 'y';
  EXPECT_TRUE(was_dirty);
}

TEST_F(BufferPoolTest, RestorePageRevertsContent) {
  BufferPool pool(disk_.get(), 4, /*shards=*/0, &registry_);
  std::string before;
  pool.set_pre_dirty_hook([&](PageId, const char* data, bool) {
    before.assign(data, kPageSize);
  });
  pool.BeginEpoch();
  ASSERT_OK_AND_ASSIGN(PageHandle h, pool.Fetch(1));
  std::memcpy(h.mutable_data(), "modified", 8);
  ASSERT_OK(pool.RestorePage(1, before.data(), false));
  EXPECT_NE(std::string(h.data(), 8), "modified");
}

TEST_F(BufferPoolTest, FlushAllWritesDirtyPages) {
  BufferPool pool(disk_.get(), 4, /*shards=*/0, &registry_);
  pool.BeginEpoch();
  {
    ASSERT_OK_AND_ASSIGN(PageHandle h, pool.Fetch(2));
    std::memcpy(h.mutable_data(), "flushed", 7);
  }
  pool.CommitEpoch();
  ASSERT_OK(pool.FlushAll());
  char buf[kPageSize];
  ASSERT_OK(disk_->ReadPage(2, buf));
  EXPECT_EQ(std::string(buf, 7), "flushed");
  EXPECT_EQ(Count("bufferpool.flushes"), 1u);
}

TEST_F(BufferPoolTest, FlushAllMidEpochRejected) {
  BufferPool pool(disk_.get(), 4, /*shards=*/0, &registry_);
  pool.BeginEpoch();
  ASSERT_OK_AND_ASSIGN(PageHandle h, pool.Fetch(1));
  h.mutable_data()[0] = 'z';
  h.Release();
  EXPECT_TRUE(pool.FlushAll().IsFailedPrecondition());
}

TEST_F(BufferPoolTest, DropAllUnpinnedForcesReread) {
  SeedPage(1, "on disk");
  BufferPool pool(disk_.get(), 4, /*shards=*/0, &registry_);
  { ASSERT_OK_AND_ASSIGN(PageHandle h, pool.Fetch(1)); }
  pool.DropAllUnpinned();
  EXPECT_EQ(pool.resident_pages(), 0u);
  ASSERT_OK_AND_ASSIGN(PageHandle h, pool.Fetch(1));
  EXPECT_EQ(Count("bufferpool.misses"), 2u);
}

TEST_F(BufferPoolTest, MoveSemanticsOfHandle) {
  BufferPool pool(disk_.get(), 4, /*shards=*/0, &registry_);
  ASSERT_OK_AND_ASSIGN(PageHandle a, pool.Fetch(1));
  PageHandle b = std::move(a);
  EXPECT_FALSE(a.valid());
  EXPECT_TRUE(b.valid());
  EXPECT_EQ(b.id(), 1u);
  b.Release();
  EXPECT_FALSE(b.valid());
  // With no pins, the page evicts cleanly.
  pool.DropAllUnpinned();
  EXPECT_EQ(pool.resident_pages(), 0u);
}

}  // namespace
}  // namespace ode
