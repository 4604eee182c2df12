#include "storage/storage_engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "storage/btree.h"
#include "util/event_log.h"
#include "tests/testing/util.h"

namespace ode {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override { Open(); }

  void Open() {
    StorageOptions options;
    options.env = &env_;
    options.path = "/db";
    auto engine = StorageEngine::Open(options);
    ASSERT_TRUE(engine.ok()) << engine.status();
    engine_ = std::move(*engine);
  }

  void Reopen() {
    engine_.reset();
    Open();
  }

  MemEnv env_;
  std::unique_ptr<StorageEngine> engine_;
};

TEST_F(EngineTest, SingleTransactionAtATime) {
  ASSERT_OK_AND_ASSIGN(Txn * txn, engine_->Begin());
  EXPECT_TRUE(engine_->Begin().status().IsFailedPrecondition());
  ASSERT_OK(engine_->Commit(txn));
  ASSERT_OK_AND_ASSIGN(Txn * txn2, engine_->Begin());
  ASSERT_OK(engine_->Abort(txn2));
}

TEST_F(EngineTest, CommitWithoutOpenTxnRejected) {
  ASSERT_OK_AND_ASSIGN(Txn * txn, engine_->Begin());
  ASSERT_OK(engine_->Commit(txn));
  EXPECT_TRUE(engine_->Commit(txn).IsFailedPrecondition());
  EXPECT_TRUE(engine_->Abort(txn).IsFailedPrecondition());
}

TEST_F(EngineTest, AllocateAndFreePagesRoundTrip) {
  PageId allocated = kInvalidPageId;
  ASSERT_OK(engine_->WithTxn([&](Txn& txn) -> Status {
    auto pid = txn.AllocatePage();
    if (!pid.ok()) return pid.status();
    allocated = *pid;
    EXPECT_NE(allocated, kInvalidPageId);
    return Status::OK();
  }));
  ASSERT_OK(engine_->WithTxn([&](Txn& txn) { return txn.FreePage(allocated); }));
  // Next allocation reuses the freed page.
  ASSERT_OK(engine_->WithTxn([&](Txn& txn) -> Status {
    auto pid = txn.AllocatePage();
    if (!pid.ok()) return pid.status();
    EXPECT_EQ(*pid, allocated);
    return Status::OK();
  }));
}

TEST_F(EngineTest, FreeingSuperblockRejected) {
  ASSERT_OK(engine_->WithTxn([](Txn& txn) -> Status {
    EXPECT_TRUE(txn.FreePage(0).IsInvalidArgument());
    return Status::OK();
  }));
}

TEST_F(EngineTest, CountersPersistAcrossReopen) {
  ASSERT_OK(engine_->WithTxn(
      [](Txn& txn) { return txn.SetCounter(5, 0xdeadbeefull); }));
  Reopen();
  ASSERT_OK(engine_->WithTxn([](Txn& txn) -> Status {
    auto v = txn.GetCounter(5);
    if (!v.ok()) return v.status();
    EXPECT_EQ(*v, 0xdeadbeefull);
    return Status::OK();
  }));
}

TEST_F(EngineTest, RootSlotsPersistAcrossReopen) {
  ASSERT_OK(engine_->WithTxn([](Txn& txn) { return txn.SetRoot(6, 42); }));
  Reopen();
  ASSERT_OK(engine_->WithTxn([](Txn& txn) -> Status {
    auto v = txn.GetRoot(6);
    if (!v.ok()) return v.status();
    EXPECT_EQ(*v, 42u);
    return Status::OK();
  }));
}

TEST_F(EngineTest, OutOfRangeSlotsRejected) {
  ASSERT_OK(engine_->WithTxn([](Txn& txn) -> Status {
    EXPECT_TRUE(txn.GetRoot(-1).status().IsInvalidArgument());
    EXPECT_TRUE(txn.GetRoot(8).status().IsInvalidArgument());
    EXPECT_TRUE(txn.GetCounter(8).status().IsInvalidArgument());
    EXPECT_TRUE(txn.SetCounter(-1, 0).IsInvalidArgument());
    return Status::OK();
  }));
}

TEST_F(EngineTest, AbortRollsBackHeapInsert) {
  RecordId rid;
  ASSERT_OK_AND_ASSIGN(Txn * txn, engine_->Begin());
  {
    auto r = engine_->heap().Insert(txn, Slice("rolled back"));
    ASSERT_TRUE(r.ok());
    rid = *r;
  }
  ASSERT_OK(engine_->Abort(txn));
  ASSERT_OK(engine_->WithTxn([&](Txn& t) -> Status {
    EXPECT_TRUE(engine_->heap().Read(&t, rid).status().IsNotFound());
    return Status::OK();
  }));
}

TEST_F(EngineTest, AbortRollsBackPageAllocation) {
  uint32_t pages_before = 0;
  ASSERT_OK(engine_->WithTxn([&](Txn& txn) -> Status {
    auto pc = txn.PageCount();
    if (!pc.ok()) return pc.status();
    pages_before = *pc;
    return Status::OK();
  }));
  ASSERT_OK_AND_ASSIGN(Txn * txn, engine_->Begin());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(txn->AllocatePage().ok());
  }
  ASSERT_OK(engine_->Abort(txn));
  ASSERT_OK(engine_->WithTxn([&](Txn& t) -> Status {
    auto pc = t.PageCount();
    if (!pc.ok()) return pc.status();
    EXPECT_EQ(*pc, pages_before);
    return Status::OK();
  }));
}

TEST_F(EngineTest, AbortPreservesEarlierCommittedData) {
  // T1 commits data; T2 touches the same pages and aborts; T1's data must
  // survive even though it was never flushed to the data file.
  ASSERT_OK(engine_->WithTxn([&](Txn& txn) -> Status {
    auto tree = BTree::Open(&txn, 4);
    if (!tree.ok()) return tree.status();
    return tree->Put(Slice("committed"), Slice("v1"));
  }));
  ASSERT_OK_AND_ASSIGN(Txn * txn, engine_->Begin());
  {
    auto tree = BTree::Open(txn, 4);
    ASSERT_TRUE(tree.ok());
    ASSERT_OK(tree->Put(Slice("committed"), Slice("overwritten")));
    ASSERT_OK(tree->Put(Slice("extra"), Slice("x")));
  }
  ASSERT_OK(engine_->Abort(txn));
  ASSERT_OK(engine_->WithTxn([&](Txn& t) -> Status {
    auto tree = BTree::Open(&t, 4);
    if (!tree.ok()) return tree.status();
    EXPECT_EQ(*tree->Get(Slice("committed")), "v1");
    EXPECT_TRUE(tree->Get(Slice("extra")).status().IsNotFound());
    return Status::OK();
  }));
}

TEST_F(EngineTest, WithTxnAbortsOnError) {
  Status s = engine_->WithTxn([&](Txn& txn) -> Status {
    auto r = engine_->heap().Insert(&txn, Slice("doomed"));
    (void)r;
    return Status::Aborted("body failed");
  });
  EXPECT_TRUE(s.IsAborted());
  // Engine usable afterwards.
  ASSERT_OK(engine_->WithTxn([](Txn&) { return Status::OK(); }));
}

TEST_F(EngineTest, ReadOnlyTxnWritesNothingToWal) {
  // First use of the tree slot allocates the root page; get that out of the
  // way so the measured transaction is purely a read.
  ASSERT_OK(engine_->WithTxn([](Txn& txn) -> Status {
    auto tree = BTree::Open(&txn, 4);
    return tree.ok() ? Status::OK() : tree.status();
  }));
  const uint64_t wal_before = engine_->wal_bytes();
  ASSERT_OK(engine_->WithTxn([&](Txn& txn) -> Status {
    auto tree = BTree::Open(&txn, 4);
    if (!tree.ok()) return tree.status();
    auto v = tree->Get(Slice("anything"));
    EXPECT_TRUE(v.status().IsNotFound());
    return Status::OK();
  }));
  EXPECT_EQ(engine_->wal_bytes(), wal_before);
}

TEST_F(EngineTest, DataSurvivesReopenViaCheckpoint) {
  ASSERT_OK(engine_->WithTxn([&](Txn& txn) -> Status {
    auto tree = BTree::Open(&txn, 4);
    if (!tree.ok()) return tree.status();
    return tree->Put(Slice("persist"), Slice("me"));
  }));
  Reopen();  // Destructor checkpoints.
  ASSERT_OK(engine_->WithTxn([&](Txn& txn) -> Status {
    auto tree = BTree::Open(&txn, 4);
    if (!tree.ok()) return tree.status();
    EXPECT_EQ(*tree->Get(Slice("persist")), "me");
    return Status::OK();
  }));
}

TEST_F(EngineTest, ManualCheckpointTruncatesWal) {
  ASSERT_OK(engine_->WithTxn([&](Txn& txn) -> Status {
    auto r = engine_->heap().Insert(&txn, Slice("data"));
    return r.ok() ? Status::OK() : r.status();
  }));
  EXPECT_GT(engine_->wal_bytes(), 0u);
  ASSERT_OK(engine_->Checkpoint());
  EXPECT_EQ(engine_->wal_bytes(), 0u);
}

TEST_F(EngineTest, CheckpointMidTxnRejected) {
  ASSERT_OK_AND_ASSIGN(Txn * txn, engine_->Begin());
  EXPECT_TRUE(engine_->Checkpoint().IsFailedPrecondition());
  ASSERT_OK(engine_->Abort(txn));
}

TEST_F(EngineTest, AutoCheckpointAfterWalThreshold) {
  engine_.reset();
  StorageOptions options;
  options.env = &env_;
  options.path = "/db2";
  options.checkpoint_wal_bytes = 64 * 1024;  // Tiny threshold.
  auto engine = StorageEngine::Open(options);
  ASSERT_TRUE(engine.ok());
  auto& e = *engine;
  const uint64_t checkpoints_before = e->checkpoint_count();
  for (int i = 0; i < 100; ++i) {
    ASSERT_OK(e->WithTxn([&](Txn& txn) -> Status {
      auto r = e->heap().Insert(&txn, Slice(std::string(1000, 'x')));
      return r.ok() ? Status::OK() : r.status();
    }));
  }
  // Checkpointing moved off the commit path into the background
  // checkpointer, which Commit nudges when wal_bytes crosses the
  // threshold — poll briefly instead of asserting synchronously.
  for (int spins = 0; spins < 1000; ++spins) {
    if (e->checkpoint_count() > checkpoints_before) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GT(e->checkpoint_count(), checkpoints_before);
  EXPECT_LT(e->wal_bytes(), 2 * options.checkpoint_wal_bytes);
}

// Admission caps the WAL.  Closed-loop writers that never pause can keep
// re-taking the apply latch the background checkpointer waits for; without
// the cap the log then grows far past its threshold (and MemEnv's file
// buffer keeps the doubled capacity after truncation).  Past
// wal_stall_bytes() the next transaction checkpoints first, so the log
// exceeds that limit by at most one transaction's records: here each logs
// ~5 KB, so it stays within 1.5x the threshold at every sample.  The name
// carries "Concurrent" so the TSan job runs it.
TEST_F(EngineTest, ConcurrentWritersKeepWalUnderCap) {
  engine_.reset();
  EventLog journal(4096);
  StorageOptions options;
  options.env = &env_;
  options.path = "/capdb";
  options.checkpoint_wal_bytes = 64 * 1024;
  options.event_log = &journal;
  ASSERT_OK_AND_ASSIGN(auto engine, StorageEngine::Open(options));
  const uint64_t cap = options.checkpoint_wal_bytes * 3 / 2;
  EXPECT_LE(engine->wal_stall_bytes(), cap);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> peak{0};
  std::thread sampler([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const uint64_t now = engine->wal_bytes();
      if (now > peak.load(std::memory_order_relaxed)) {
        peak.store(now, std::memory_order_relaxed);
      }
      std::this_thread::yield();
    }
  });
  constexpr int kWriters = 3;
  constexpr int kCommitsEach = 400;
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      const std::string payload(1000, static_cast<char>('a' + w));
      for (int i = 0; i < kCommitsEach; ++i) {
        ASSERT_OK(engine->WithTxn([&](Txn& txn) -> Status {
          auto r = engine->heap().Insert(&txn, Slice(payload));
          return r.ok() ? Status::OK() : r.status();
        }));
        EXPECT_LE(engine->wal_bytes(), cap);
      }
    });
  }
  for (std::thread& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  sampler.join();

  EXPECT_LE(peak.load(), cap);
  EXPECT_LE(engine->wal_bytes(), cap);
  EXPECT_GT(engine->checkpoint_count(), 0u);
  // Every stall is counted and journaled.
  std::vector<EventRecord> events;
  journal.Snapshot(&events);
  uint64_t stall_records = 0;
  for (const EventRecord& e : events) {
    if (e.type != EventType::kWalStall) continue;
    ++stall_records;
    EXPECT_GT(e.a, engine->wal_stall_bytes());
    EXPECT_EQ(e.b, engine->wal_stall_bytes());
  }
  EXPECT_EQ(stall_records,
            engine->metrics_registry().SnapshotAll().counter("wal.stalls"));
}

// Regression test for the monitoring-counter data race the thread-safety
// annotation pass surfaced: commit_count()/checkpoint_count()/wal_bytes()/
// wal_total_bytes() are read from arbitrary threads while the writer thread
// is mid-commit.  Before the counters became atomics these were plain
// uint64_t torn between threads; the name carries "Concurrent" so the TSan
// CI job (ctest -R Concurrent) replays it under the race detector.
TEST_F(EngineTest, ConcurrentStatsReadersDuringCommits) {
  constexpr int kReaders = 4;
  constexpr int kCommits = 200;
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      uint64_t sink = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        sink += engine_->commit_count();
        sink += engine_->checkpoint_count();
        sink += engine_->wal_bytes();
        sink += engine_->wal_total_bytes();
        sink += engine_->metrics_registry().SnapshotAll().counter(
            "bufferpool.hits");
      }
      static_cast<void>(sink);
      // Monotonic counters: stop is only set after the last commit, so the
      // final read must see every one of them.
      EXPECT_GE(engine_->commit_count(), static_cast<uint64_t>(kCommits));
    });
  }
  for (int i = 0; i < kCommits; ++i) {
    ASSERT_OK(engine_->WithTxn([&](Txn& txn) -> Status {
      auto r = engine_->heap().Insert(&txn, Slice("concurrent-stats"));
      return r.ok() ? Status::OK() : r.status();
    }));
  }
  ASSERT_OK(engine_->Checkpoint());
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();
  EXPECT_GE(engine_->commit_count(), static_cast<uint64_t>(kCommits));
  EXPECT_GE(engine_->checkpoint_count(), 1u);
}

}  // namespace
}  // namespace ode
