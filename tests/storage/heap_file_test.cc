#include "storage/heap_file.h"

#include <gtest/gtest.h>

#include <map>

#include "storage/slotted_page.h"
#include "storage/storage_engine.h"
#include "tests/testing/util.h"
#include "util/random.h"

namespace ode {
namespace {

class HeapFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    StorageOptions options;
    options.env = &env_;
    options.path = "/db";
    auto engine = StorageEngine::Open(options);
    ASSERT_TRUE(engine.ok()) << engine.status();
    engine_ = std::move(*engine);
  }

  /// Runs `body` in a transaction and asserts it commits.
  void InTxn(const std::function<Status(Txn&)>& body) {
    ASSERT_OK(engine_->WithTxn(body));
  }

  MemEnv env_;
  std::unique_ptr<StorageEngine> engine_;
};

TEST_F(HeapFileTest, InsertReadSmallRecord) {
  RecordId rid;
  InTxn([&](Txn& txn) -> Status {
    auto r = engine_->heap().Insert(&txn, Slice("small record"));
    if (!r.ok()) return r.status();
    rid = *r;
    return Status::OK();
  });
  InTxn([&](Txn& txn) -> Status {
    auto bytes = engine_->heap().Read(&txn, rid);
    if (!bytes.ok()) return bytes.status();
    EXPECT_EQ(*bytes, "small record");
    return Status::OK();
  });
}

TEST_F(HeapFileTest, EmptyRecordRoundTrip) {
  RecordId rid;
  InTxn([&](Txn& txn) -> Status {
    auto r = engine_->heap().Insert(&txn, Slice(""));
    if (!r.ok()) return r.status();
    rid = *r;
    auto bytes = engine_->heap().Read(&txn, rid);
    if (!bytes.ok()) return bytes.status();
    EXPECT_TRUE(bytes->empty());
    return Status::OK();
  });
}

TEST_F(HeapFileTest, LargeRecordUsesOverflowChain) {
  Random rng(1);
  const std::string big = rng.NextBytes(100000);  // ~25 pages.
  RecordId rid;
  InTxn([&](Txn& txn) -> Status {
    auto r = engine_->heap().Insert(&txn, Slice(big));
    if (!r.ok()) return r.status();
    rid = *r;
    return Status::OK();
  });
  InTxn([&](Txn& txn) -> Status {
    auto bytes = engine_->heap().Read(&txn, rid);
    if (!bytes.ok()) return bytes.status();
    EXPECT_EQ(*bytes, big);
    auto stats = engine_->heap().Stats(&txn);
    if (!stats.ok()) return stats.status();
    EXPECT_GT(stats->overflow_pages, 20u);
    return Status::OK();
  });
}

TEST_F(HeapFileTest, BoundaryRecordSizes) {
  // Exercise sizes around the inline/overflow threshold.
  for (size_t size :
       {size_t{SlottedPage::kMaxCellSize - 2}, size_t{SlottedPage::kMaxCellSize - 1},
        size_t{SlottedPage::kMaxCellSize}, size_t{SlottedPage::kMaxCellSize + 1},
        size_t{2 * kPageSize}}) {
    Random rng(size);
    const std::string payload = rng.NextBytes(size);
    RecordId rid;
    InTxn([&](Txn& txn) -> Status {
      auto r = engine_->heap().Insert(&txn, Slice(payload));
      if (!r.ok()) return r.status();
      rid = *r;
      auto bytes = engine_->heap().Read(&txn, rid);
      if (!bytes.ok()) return bytes.status();
      EXPECT_EQ(bytes->size(), payload.size()) << "size=" << size;
      EXPECT_EQ(*bytes, payload);
      return Status::OK();
    });
  }
}

TEST_F(HeapFileTest, DeleteRemovesRecord) {
  RecordId rid;
  InTxn([&](Txn& txn) -> Status {
    auto r = engine_->heap().Insert(&txn, Slice("doomed"));
    if (!r.ok()) return r.status();
    rid = *r;
    return Status::OK();
  });
  InTxn([&](Txn& txn) { return engine_->heap().Delete(&txn, rid); });
  InTxn([&](Txn& txn) -> Status {
    EXPECT_TRUE(engine_->heap().Read(&txn, rid).status().IsNotFound());
    return Status::OK();
  });
}

TEST_F(HeapFileTest, DeleteLargeRecordFreesOverflowPages) {
  Random rng(2);
  const std::string big = rng.NextBytes(50000);
  RecordId rid;
  InTxn([&](Txn& txn) -> Status {
    auto r = engine_->heap().Insert(&txn, Slice(big));
    if (!r.ok()) return r.status();
    rid = *r;
    return Status::OK();
  });
  uint32_t overflow_before = 0;
  InTxn([&](Txn& txn) -> Status {
    auto stats = engine_->heap().Stats(&txn);
    if (!stats.ok()) return stats.status();
    overflow_before = stats->overflow_pages;
    return engine_->heap().Delete(&txn, rid);
  });
  EXPECT_GT(overflow_before, 0u);
  InTxn([&](Txn& txn) -> Status {
    auto stats = engine_->heap().Stats(&txn);
    if (!stats.ok()) return stats.status();
    EXPECT_EQ(stats->overflow_pages, 0u);
    return Status::OK();
  });
}

TEST_F(HeapFileTest, FreedPagesAreReused) {
  // Insert + delete a large record, then insert again: the file should not
  // keep growing because freed pages are recycled.
  Random rng(3);
  const std::string big = rng.NextBytes(40000);
  uint32_t pages_after_first = 0;
  for (int round = 0; round < 5; ++round) {
    RecordId rid;
    InTxn([&](Txn& txn) -> Status {
      auto r = engine_->heap().Insert(&txn, Slice(big));
      if (!r.ok()) return r.status();
      rid = *r;
      return Status::OK();
    });
    InTxn([&](Txn& txn) { return engine_->heap().Delete(&txn, rid); });
    uint32_t page_count = 0;
    InTxn([&](Txn& txn) -> Status {
      auto pc = txn.PageCount();
      if (!pc.ok()) return pc.status();
      page_count = *pc;
      return Status::OK();
    });
    if (round == 0) {
      pages_after_first = page_count;
    } else {
      EXPECT_EQ(page_count, pages_after_first) << "round " << round;
    }
  }
}

TEST_F(HeapFileTest, ForEachVisitsAllRecords) {
  std::map<uint64_t, std::string> expected;
  InTxn([&](Txn& txn) -> Status {
    for (int i = 0; i < 50; ++i) {
      std::string payload = "record-" + std::to_string(i);
      auto r = engine_->heap().Insert(&txn, Slice(payload));
      if (!r.ok()) return r.status();
      expected[r->Encode()] = payload;
    }
    return Status::OK();
  });
  std::map<uint64_t, std::string> seen;
  InTxn([&](Txn& txn) {
    return engine_->heap().ForEach(&txn, [&](RecordId rid, const Slice& data) {
      seen[rid.Encode()] = data.ToString();
      return true;
    });
  });
  EXPECT_EQ(seen, expected);
}

TEST_F(HeapFileTest, ForEachEarlyStop) {
  InTxn([&](Txn& txn) -> Status {
    for (int i = 0; i < 10; ++i) {
      auto r = engine_->heap().Insert(&txn, Slice("x"));
      if (!r.ok()) return r.status();
    }
    return Status::OK();
  });
  int visited = 0;
  InTxn([&](Txn& txn) {
    return engine_->heap().ForEach(&txn, [&](RecordId, const Slice&) {
      return ++visited < 3;
    });
  });
  EXPECT_EQ(visited, 3);
}

TEST_F(HeapFileTest, RandomizedAgainstReferenceModel) {
  Random rng(777);
  std::map<uint64_t, std::string> model;
  for (int op = 0; op < 400; ++op) {
    if (model.empty() || rng.Uniform(3) != 0) {
      const std::string payload = rng.NextBytes(rng.Range(0, 12000));
      InTxn([&](Txn& txn) -> Status {
        auto r = engine_->heap().Insert(&txn, Slice(payload));
        if (!r.ok()) return r.status();
        model[r->Encode()] = payload;
        return Status::OK();
      });
    } else {
      auto it = model.begin();
      std::advance(it, rng.Uniform(model.size()));
      InTxn([&](Txn& txn) {
        return engine_->heap().Delete(&txn, RecordId::Decode(it->first));
      });
      model.erase(it);
    }
    if (op % 50 == 0) {
      for (const auto& [encoded, expected] : model) {
        InTxn([&](Txn& txn) -> Status {
          auto bytes = engine_->heap().Read(&txn, RecordId::Decode(encoded));
          if (!bytes.ok()) return bytes.status();
          EXPECT_EQ(*bytes, expected);
          return Status::OK();
        });
      }
    }
  }
}

TEST_F(HeapFileTest, RecordIdEncodeDecodeRoundTrip) {
  RecordId rid{12345, 678};
  RecordId decoded = RecordId::Decode(rid.Encode());
  EXPECT_EQ(decoded, rid);
  EXPECT_TRUE(rid.valid());
  EXPECT_FALSE(RecordId{}.valid());
}

// The free-space index must pick exactly the page the first-fit linear scan
// over a page-id-ordered map would: the lowest id with enough room.  Ids
// grow past the index's initial width to exercise its regrowth.
TEST(FreeSpaceIndexTest, MatchesLinearFirstFitScan) {
  Random rng(7);
  FreeSpaceIndex index;
  std::map<PageId, uint32_t> model;
  for (int step = 0; step < 20000; ++step) {
    const PageId id =
        static_cast<PageId>(1 + rng.Uniform(step < 10000 ? 200 : 3000));
    switch (rng.Uniform(4)) {
      case 0:
        index.Erase(id);
        model.erase(id);
        break;
      default: {
        const uint32_t free = static_cast<uint32_t>(rng.Uniform(kPageSize));
        index.Set(id, free);
        model[id] = free;
        break;
      }
    }
    const uint32_t need = static_cast<uint32_t>(1 + rng.Uniform(kPageSize));
    PageId expected = kInvalidPageId;
    for (const auto& [pid, free] : model) {
      if (free >= need) {
        expected = pid;
        break;
      }
    }
    ASSERT_EQ(index.FirstFit(need), expected) << "step " << step;
  }
  index.Clear();
  EXPECT_EQ(index.FirstFit(1), kInvalidPageId);
}

}  // namespace
}  // namespace ode
