#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/database.h"
#include "tests/testing/db_fixture.h"

// Single-writer / multi-reader stress tests for the Database read path.
// Readers run ReadLatest / ReadVersion / traversals through ReadTxn (shared
// engine lock) while one writer commits mutations through exclusive
// transactions.  The invariant under no-steal buffering: every successful
// read observes some state that was committed at the time the read's shared
// lock was held — never a torn payload, never in-flight transaction state.
// These tests are the TSan targets for the core layer (ctest -R Concurrent).

namespace ode {
namespace {

using testing_internal::DatabaseFixture;

class ConcurrentReadTest : public DatabaseFixture {
 protected:
  void SetUp() override {
    DatabaseFixture::SetUp();
    SetUpRawType();
  }

  /// Payload for object index `obj` at revision `rev`.  Readers validate the
  /// prefix to prove a read never mixes objects or tears mid-payload.
  static std::string Payload(int obj, int rev) {
    std::string p = "obj" + std::to_string(obj) + ":rev" +
                    std::to_string(rev) + ":";
    // Pad so payloads span multiple cache lines; a torn read would show as a
    // filler mismatch.
    p.resize(256, static_cast<char>('a' + (rev % 26)));
    return p;
  }

  static bool PayloadConsistent(const std::string& got, int obj) {
    const std::string prefix = "obj" + std::to_string(obj) + ":rev";
    if (got.size() != 256 || got.compare(0, prefix.size(), prefix) != 0) {
      return false;
    }
    int rev = 0;
    size_t i = prefix.size();
    while (i < got.size() && got[i] >= '0' && got[i] <= '9') {
      rev = rev * 10 + (got[i] - '0');
      ++i;
    }
    if (i == prefix.size() || i >= got.size() || got[i] != ':') return false;
    const char filler = static_cast<char>('a' + (rev % 26));
    for (++i; i < got.size(); ++i) {
      if (got[i] != filler) return false;
    }
    return true;
  }
};

TEST_F(ConcurrentReadTest, ConcurrentReadersSeeOnlyCommittedPayloads) {
  constexpr int kObjects = 8;
  constexpr int kReaders = 4;
  constexpr int kWriterRounds = 200;

  std::vector<ObjectId> oids;
  for (int i = 0; i < kObjects; ++i) {
    auto vid = db_->PnewRaw(type_id_, Slice(Payload(i, 0)));
    ASSERT_TRUE(vid.ok()) << vid.status();
    oids.push_back(vid->oid);
  }

  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};
  std::atomic<int> read_errors{0};
  std::atomic<uint64_t> reads_done{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      int i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const int obj = (r + i++) % kObjects;
        auto bytes = db_->ReadLatest(oids[obj]);
        if (!bytes.ok()) {
          read_errors.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        if (!PayloadConsistent(*bytes, obj)) {
          violations.fetch_add(1, std::memory_order_relaxed);
        }
        reads_done.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Writer: each UpdateLatest is its own exclusive transaction, so readers
  // between two commits must see either the old or the new payload, whole.
  for (int round = 1; round <= kWriterRounds; ++round) {
    const int obj = round % kObjects;
    ASSERT_OK(db_->UpdateLatest(oids[obj], Slice(Payload(obj, round))));
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : readers) th.join();

  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(read_errors.load(), 0);
  EXPECT_GT(reads_done.load(), 0u);
}

TEST_F(ConcurrentReadTest, ConcurrentTraversalsWhileVersionsGrow) {
  // Note the writer-rounds count is deliberately modest: readers here never
  // hit the pre-lock caches (traversals always take the shared engine lock),
  // and glibc's rwlock prefers readers, so each exclusive acquisition waits
  // out the reader storm.  More rounds mostly measures that starvation.
  constexpr int kObjects = 4;
  constexpr int kReaders = 4;
  constexpr int kNewVersions = 32;

  std::vector<ObjectId> oids;
  for (int i = 0; i < kObjects; ++i) {
    auto vid = db_->PnewRaw(type_id_, Slice(Payload(i, 0)));
    ASSERT_TRUE(vid.ok()) << vid.status();
    oids.push_back(vid->oid);
  }

  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      int i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const int obj = (r + i++) % kObjects;
        // Version-set traversal: whatever snapshot the shared lock caught,
        // the set must be a dense prefix kFirstVersion..latest of the
        // temporal order (nothing is deleted in this test).
        auto versions = db_->VersionsOf(oids[obj]);
        if (!versions.ok()) {
          violations.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        for (size_t k = 0; k < versions->size(); ++k) {
          if ((*versions)[k].vnum != kFirstVersion + static_cast<VersionNum>(k)) {
            violations.fetch_add(1, std::memory_order_relaxed);
            break;
          }
        }
        // Latest must be the last element of that set.
        auto latest = db_->Latest(oids[obj]);
        if (!latest.ok()) {
          violations.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        // Temporal-order walk from latest terminates at the first version.
        auto prev = db_->Tprevious(*latest);
        if (!prev.ok()) {
          violations.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        if (latest->vnum == kFirstVersion) {
          if (prev->has_value()) {
            violations.fetch_add(1, std::memory_order_relaxed);
          }
        } else if (!prev->has_value() ||
                   (*prev)->vnum != latest->vnum - 1) {
          violations.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  for (int n = 0; n < kNewVersions; ++n) {
    const int obj = n % kObjects;
    auto vid = db_->NewVersionOf(oids[obj]);
    ASSERT_TRUE(vid.ok()) << vid.status();
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : readers) th.join();

  EXPECT_EQ(violations.load(), 0);
}

TEST_F(ConcurrentReadTest, ConcurrentReadsTolerateDeletes) {
  constexpr int kReaders = 4;
  constexpr int kRounds = 60;

  // One object whose non-latest versions the writer keeps deleting; readers
  // pin specific versions and must get either the whole payload or NotFound,
  // never garbage.
  auto v0 = db_->PnewRaw(type_id_, Slice(Payload(0, 0)));
  ASSERT_TRUE(v0.ok()) << v0.status();
  const ObjectId oid = v0->oid;

  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};
  std::atomic<uint64_t> max_vnum{kFirstVersion};

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      int i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const uint64_t hi = max_vnum.load(std::memory_order_relaxed);
        const VersionNum vnum =
            kFirstVersion + static_cast<VersionNum>((r + i++) % hi);
        auto bytes = db_->ReadVersion(VersionId{oid, vnum});
        if (bytes.ok()) {
          if (!PayloadConsistent(*bytes, 0)) {
            violations.fetch_add(1, std::memory_order_relaxed);
          }
        } else if (!bytes.status().IsNotFound()) {
          violations.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  for (int round = 1; round <= kRounds; ++round) {
    auto vid = db_->NewVersionOf(oid);
    ASSERT_TRUE(vid.ok()) << vid.status();
    ASSERT_OK(db_->UpdateVersion(*vid, Slice(Payload(0, round))));
    max_vnum.store(vid->vnum, std::memory_order_relaxed);
    if (round % 3 == 0 && vid->vnum >= 2) {
      // Delete an older version; concurrent readers of it must flip cleanly
      // to NotFound.
      Status s = db_->PdeleteVersion(VersionId{oid, vid->vnum - 2});
      if (!s.ok() && !s.IsNotFound()) {
        ASSERT_OK(s);
      }
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : readers) th.join();

  EXPECT_EQ(violations.load(), 0);
}

TEST_F(ConcurrentReadTest, StatsSnapshotIsCoherentUnderConcurrency) {
  auto vid = db_->PnewRaw(type_id_, Slice(Payload(0, 0)));
  ASSERT_TRUE(vid.ok()) << vid.status();
  const ObjectId oid = vid->oid;

  constexpr int kReaders = 4;
  constexpr int kReadsPerThread = 500;
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      for (int i = 0; i < kReadsPerThread; ++i) {
        auto bytes = db_->ReadLatest(oid);
        EXPECT_TRUE(bytes.ok()) << bytes.status();
        // Interleave registry snapshots (which run the caches' and the
        // pool's pull hooks) with reads from many threads at once.
        (void)db_->MetricsSnapshot();
      }
    });
  }
  for (auto& th : readers) th.join();

  const MetricsRegistry::Snapshot stats = db_->MetricsSnapshot();
  // Every ReadLatest probes the latest-version cache exactly once.
  EXPECT_EQ(stats.counter("latest_cache.hits") +
                stats.counter("latest_cache.misses"),
            static_cast<uint64_t>(kReaders) * kReadsPerThread);
}

// Multi-WRITER stress: several threads mutate disjoint objects through the
// striped write latches and the group-commit queue, while readers validate
// payload integrity and pollers hammer the stats snapshot.  This is the
// primary TSan target for the write-path concurrency work: a data race in
// the latch set, the commit queue, the cache epoch hooks, or the metric
// counters shows up here under `ctest -R Concurrent` in the tsan CI job.
TEST_F(ConcurrentReadTest, ConcurrentDisjointWritersScaleWithoutRaces) {
  constexpr int kWriters = 4;
  constexpr int kObjectsPerWriter = 2;
  constexpr int kRoundsPerWriter = 120;
  constexpr int kReaders = 2;

  // Each writer owns kObjectsPerWriter objects; writers never touch each
  // other's objects, so every commit is eligible for concurrent batching.
  std::vector<std::vector<ObjectId>> owned(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    for (int k = 0; k < kObjectsPerWriter; ++k) {
      const int obj = w * kObjectsPerWriter + k;
      auto vid = db_->PnewRaw(type_id_, Slice(Payload(obj, 0)));
      ASSERT_TRUE(vid.ok()) << vid.status();
      owned[w].push_back(vid->oid);
    }
  }

  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};
  std::vector<std::thread> threads;

  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (int round = 1; round <= kRoundsPerWriter; ++round) {
        for (int k = 0; k < kObjectsPerWriter; ++k) {
          const int obj = w * kObjectsPerWriter + k;
          Status s = db_->UpdateLatest(owned[w][k], Slice(Payload(obj, round)));
          ASSERT_TRUE(s.ok()) << s;
        }
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const int obj = static_cast<int>((i + r) %
                                         (kWriters * kObjectsPerWriter));
        auto bytes = db_->ReadLatest(owned[obj / kObjectsPerWriter]
                                          [obj % kObjectsPerWriter]);
        if (bytes.ok() && !PayloadConsistent(*bytes, obj)) {
          violations.fetch_add(1, std::memory_order_relaxed);
        }
        ++i;
      }
    });
  }
  // Stats poller: reads every atomic counter (including the group-commit
  // ones) while writers are mid-batch.
  threads.emplace_back([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const MetricsRegistry::Snapshot s = db_->MetricsSnapshot();
      if (s.counter("groupcommit.fsyncs") > s.counter("groupcommit.commits")) {
        violations.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });

  for (int w = 0; w < kWriters; ++w) threads[w].join();
  stop.store(true, std::memory_order_relaxed);
  for (size_t t = kWriters; t < threads.size(); ++t) threads[t].join();

  EXPECT_EQ(violations.load(), 0);
  // Every writer's last revision must be the visible state.
  for (int w = 0; w < kWriters; ++w) {
    for (int k = 0; k < kObjectsPerWriter; ++k) {
      const int obj = w * kObjectsPerWriter + k;
      auto bytes = db_->ReadLatest(owned[w][k]);
      ASSERT_TRUE(bytes.ok()) << bytes.status();
      EXPECT_EQ(*bytes, Payload(obj, kRoundsPerWriter));
    }
  }
  EXPECT_GE(db_->MetricsSnapshot().counter("core.update"),
            static_cast<uint64_t>(kWriters) * kObjectsPerWriter *
                kRoundsPerWriter);
}

}  // namespace
}  // namespace ode
