#include "core/database.h"

#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tests/testing/db_fixture.h"
#include "util/random.h"

namespace ode {
namespace {

using testing_internal::DatabaseFixture;

class DatabaseTest : public DatabaseFixture {
 protected:
  void SetUp() override {
    DatabaseFixture::SetUp();
    SetUpRawType();
  }
};

TEST_F(DatabaseTest, PnewCreatesObjectWithInitialVersion) {
  VersionId vid = MustPnew("first payload");
  EXPECT_TRUE(vid.valid());
  EXPECT_EQ(vid.vnum, kFirstVersion);
  EXPECT_EQ(MustRead(vid), "first payload");
  EXPECT_EQ(MustReadLatest(vid.oid), "first payload");
}

TEST_F(DatabaseTest, PnewAssignsDistinctOids) {
  VersionId a = MustPnew("a");
  VersionId b = MustPnew("b");
  EXPECT_NE(a.oid, b.oid);
}

TEST_F(DatabaseTest, HeaderReflectsInitialState) {
  VersionId vid = MustPnew("x");
  auto header = db_->Header(vid.oid);
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header->type_id, type_id_);
  EXPECT_EQ(header->latest, kFirstVersion);
  EXPECT_EQ(header->version_count, 1u);
}

TEST_F(DatabaseTest, NewVersionCopiesState) {
  VersionId v0 = MustPnew("original");
  auto v1 = db_->NewVersionOf(v0.oid);
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ(v1->vnum, v0.vnum + 1);
  EXPECT_EQ(MustRead(*v1), "original");
  EXPECT_EQ(MustRead(v0), "original");
}

TEST_F(DatabaseTest, NewVersionBecomesLatest) {
  VersionId v0 = MustPnew("original");
  auto v1 = db_->NewVersionOf(v0.oid);
  ASSERT_TRUE(v1.ok());
  auto latest = db_->Latest(v0.oid);
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(*latest, *v1);
}

TEST_F(DatabaseTest, UpdateLatestModifiesOnlyLatest) {
  VersionId v0 = MustPnew("original");
  auto v1 = db_->NewVersionOf(v0.oid);
  ASSERT_TRUE(v1.ok());
  ASSERT_OK(db_->UpdateLatest(v0.oid, Slice("changed")));
  EXPECT_EQ(MustRead(v0), "original");
  EXPECT_EQ(MustRead(*v1), "changed");
  EXPECT_EQ(MustReadLatest(v0.oid), "changed");
}

TEST_F(DatabaseTest, UpdateSpecificVersion) {
  VersionId v0 = MustPnew("original");
  auto v1 = db_->NewVersionOf(v0.oid);
  ASSERT_TRUE(v1.ok());
  ASSERT_OK(db_->UpdateVersion(v0, Slice("old changed")));
  EXPECT_EQ(MustRead(v0), "old changed");
  EXPECT_EQ(MustRead(*v1), "original");
}

TEST_F(DatabaseTest, VersionOrthogonality) {
  // Any object can grow versions at any time — no declaration, no
  // transformation step (the paper's key property).  Simulate a long-lived
  // unversioned object that suddenly becomes versioned.
  VersionId v0 = MustPnew("plain object");
  for (int i = 0; i < 10; ++i) {
    ASSERT_OK(db_->UpdateLatest(v0.oid, Slice("state " + std::to_string(i))));
  }
  auto v1 = db_->NewVersionOf(v0.oid);
  ASSERT_TRUE(v1.ok()) << "versioning must not require preparation";
  EXPECT_EQ(MustRead(*v1), "state 9");
}

TEST_F(DatabaseTest, NewVersionFromSpecificCreatesAlternative) {
  VersionId v0 = MustPnew("base");
  auto v1 = db_->NewVersionFrom(v0);
  auto v2 = db_->NewVersionFrom(v0);
  ASSERT_TRUE(v1.ok());
  ASSERT_TRUE(v2.ok());
  ASSERT_OK(db_->UpdateVersion(*v1, Slice("alternative 1")));
  ASSERT_OK(db_->UpdateVersion(*v2, Slice("alternative 2")));
  EXPECT_EQ(MustRead(v0), "base");
  EXPECT_EQ(MustRead(*v1), "alternative 1");
  EXPECT_EQ(MustRead(*v2), "alternative 2");
  // v2 was created last, so it is the latest.
  auto latest = db_->Latest(v0.oid);
  EXPECT_EQ(*latest, *v2);
}

TEST_F(DatabaseTest, PdeleteObjectRemovesEverything) {
  VersionId v0 = MustPnew("x");
  auto v1 = db_->NewVersionOf(v0.oid);
  ASSERT_TRUE(v1.ok());
  ASSERT_OK(db_->PdeleteObject(v0.oid));
  auto exists = db_->ObjectExists(v0.oid);
  ASSERT_TRUE(exists.ok());
  EXPECT_FALSE(*exists);
  EXPECT_TRUE(db_->ReadVersion(v0).status().IsNotFound());
  EXPECT_TRUE(db_->ReadVersion(*v1).status().IsNotFound());
  EXPECT_TRUE(db_->ReadLatest(v0.oid).status().IsNotFound());
}

TEST_F(DatabaseTest, PdeleteVersionRemovesJustThatVersion) {
  VersionId v0 = MustPnew("v0");
  auto v1 = db_->NewVersionOf(v0.oid);
  ASSERT_TRUE(v1.ok());
  ASSERT_OK(db_->UpdateVersion(*v1, Slice("v1")));
  ASSERT_OK(db_->PdeleteVersion(v0));
  EXPECT_TRUE(db_->ReadVersion(v0).status().IsNotFound());
  EXPECT_EQ(MustRead(*v1), "v1");
  auto header = db_->Header(v0.oid);
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header->version_count, 1u);
}

TEST_F(DatabaseTest, DeletingLatestPromotesTemporalPredecessor) {
  VersionId v0 = MustPnew("v0");
  auto v1 = db_->NewVersionOf(v0.oid);
  ASSERT_TRUE(v1.ok());
  ASSERT_OK(db_->UpdateVersion(*v1, Slice("v1")));
  ASSERT_OK(db_->PdeleteVersion(*v1));
  auto latest = db_->Latest(v0.oid);
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(*latest, v0);
  EXPECT_EQ(MustReadLatest(v0.oid), "v0");
}

TEST_F(DatabaseTest, DeletingLastVersionDeletesObject) {
  VersionId v0 = MustPnew("only");
  ASSERT_OK(db_->PdeleteVersion(v0));
  auto exists = db_->ObjectExists(v0.oid);
  ASSERT_TRUE(exists.ok());
  EXPECT_FALSE(*exists);
}

TEST_F(DatabaseTest, OperationsOnMissingObjectsFail) {
  const ObjectId ghost{999999};
  const VersionId ghost_vid{ghost, 1};
  EXPECT_TRUE(db_->ReadLatest(ghost).status().IsNotFound());
  EXPECT_TRUE(db_->ReadVersion(ghost_vid).status().IsNotFound());
  EXPECT_TRUE(db_->NewVersionOf(ghost).status().IsNotFound());
  EXPECT_TRUE(db_->NewVersionFrom(ghost_vid).status().IsNotFound());
  EXPECT_TRUE(db_->UpdateLatest(ghost, Slice("x")).IsNotFound());
  EXPECT_TRUE(db_->UpdateVersion(ghost_vid, Slice("x")).IsNotFound());
  EXPECT_TRUE(db_->PdeleteObject(ghost).IsNotFound());
  EXPECT_TRUE(db_->PdeleteVersion(ghost_vid).IsNotFound());
}

TEST_F(DatabaseTest, NewVersionFromDeletedVersionFails) {
  VersionId v0 = MustPnew("v0");
  auto v1 = db_->NewVersionOf(v0.oid);
  ASSERT_TRUE(v1.ok());
  ASSERT_OK(db_->PdeleteVersion(v0));
  EXPECT_TRUE(db_->NewVersionFrom(v0).status().IsNotFound());
}

TEST_F(DatabaseTest, VersionNumbersNeverReused) {
  VersionId v0 = MustPnew("x");
  auto v1 = db_->NewVersionOf(v0.oid);
  ASSERT_TRUE(v1.ok());
  ASSERT_OK(db_->PdeleteVersion(*v1));
  auto v2 = db_->NewVersionOf(v0.oid);
  ASSERT_TRUE(v2.ok());
  EXPECT_GT(v2->vnum, v1->vnum);
}

TEST_F(DatabaseTest, TimestampsFollowCreationOrder) {
  VersionId a0 = MustPnew("a");
  VersionId b0 = MustPnew("b");
  auto a1 = db_->NewVersionOf(a0.oid);
  ASSERT_TRUE(a1.ok());
  auto ma0 = db_->Meta(a0);
  auto mb0 = db_->Meta(b0);
  auto ma1 = db_->Meta(*a1);
  ASSERT_TRUE(ma0.ok());
  ASSERT_TRUE(mb0.ok());
  ASSERT_TRUE(ma1.ok());
  EXPECT_LT(ma0->created_ts, mb0->created_ts);
  EXPECT_LT(mb0->created_ts, ma1->created_ts);
}

TEST_F(DatabaseTest, EmptyPayloadSupported) {
  VersionId vid = MustPnew("");
  EXPECT_EQ(MustRead(vid), "");
  auto v1 = db_->NewVersionOf(vid.oid);
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ(MustRead(*v1), "");
}

TEST_F(DatabaseTest, LargePayloadSupported) {
  Random rng(1);
  const std::string big = rng.NextBytes(200000);
  VersionId vid = MustPnew(big);
  EXPECT_EQ(MustRead(vid), big);
  auto v1 = db_->NewVersionOf(vid.oid);
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ(MustRead(*v1), big);
}

TEST_F(DatabaseTest, GroupedTransactionCommit) {
  // Database::Open commits bootstrap transactions of its own, so the
  // storage-level counters are asserted as deltas.
  const MetricsRegistry::Snapshot before = db_->MetricsSnapshot();
  ASSERT_OK(db_->Begin());
  VersionId a = MustPnew("a");
  VersionId b = MustPnew("b");
  ASSERT_OK(db_->Commit());
  EXPECT_EQ(MustRead(a), "a");
  EXPECT_EQ(MustRead(b), "b");
  const MetricsRegistry::Snapshot after = db_->MetricsSnapshot();
  // One explicit commit, no aborts; the group's mutations hit the WAL and
  // its commit forced (at least) one fsync.
  EXPECT_EQ(after.counter("txn.commits"), before.counter("txn.commits") + 1);
  EXPECT_EQ(after.counter("txn.aborts"), before.counter("txn.aborts"));
  EXPECT_GT(after.counter("wal.appends"), before.counter("wal.appends"));
  EXPECT_GE(after.counter("wal.fsyncs"), before.counter("wal.fsyncs") + 1);
}

TEST_F(DatabaseTest, GroupedTransactionAbortRollsBackAll) {
  VersionId keep = MustPnew("keep");
  const MetricsRegistry::Snapshot before = db_->MetricsSnapshot();
  ASSERT_OK(db_->Begin());
  VersionId a = MustPnew("a");
  ASSERT_OK(db_->UpdateLatest(keep.oid, Slice("modified")));
  ASSERT_OK(db_->Abort());
  auto exists = db_->ObjectExists(a.oid);
  ASSERT_TRUE(exists.ok());
  EXPECT_FALSE(*exists);
  EXPECT_EQ(MustReadLatest(keep.oid), "keep");
  const MetricsRegistry::Snapshot after = db_->MetricsSnapshot();
  EXPECT_EQ(after.counter("txn.aborts"), before.counter("txn.aborts") + 1);
  EXPECT_EQ(after.counter("txn.commits"), before.counter("txn.commits"));
}

TEST_F(DatabaseTest, StatsTrackOperations) {
  VersionId v0 = MustPnew("x");
  auto v1 = db_->NewVersionOf(v0.oid);
  ASSERT_TRUE(v1.ok());
  ASSERT_OK(db_->UpdateLatest(v0.oid, Slice("y")));
  ASSERT_OK(db_->PdeleteVersion(v0));
  ASSERT_OK(db_->PdeleteObject(v0.oid));
  const MetricsRegistry::Snapshot stats = db_->MetricsSnapshot();
  EXPECT_EQ(stats.counter("core.pnew"), 1u);
  EXPECT_EQ(stats.counter("core.newversion"), 1u);
  EXPECT_EQ(stats.counter("core.update"), 1u);
  EXPECT_GE(stats.counter("core.delete_version"), 2u);
  EXPECT_EQ(stats.counter("core.delete_object"), 1u);
  // The storage-level view: every autocommitted operation above ran its own
  // transaction, and nothing here aborted.
  EXPECT_GE(stats.counter("txn.commits"), 5u);
  EXPECT_EQ(stats.counter("txn.aborts"), 0u);
  EXPECT_GT(stats.counter("wal.appends"), 0u);
  EXPECT_GT(stats.counter("wal.fsyncs"), 0u);
}

TEST_F(DatabaseTest, StatsExposeGroupCommitCounters) {
  const MetricsRegistry::Snapshot before = db_->MetricsSnapshot();
  constexpr int kCommits = 8;
  VersionId vid = MustPnew("gc");
  for (int i = 1; i < kCommits; ++i) {
    ASSERT_OK(db_->UpdateLatest(vid.oid, Slice("gc" + std::to_string(i))));
  }
  const MetricsRegistry::Snapshot after = db_->MetricsSnapshot();
  const auto delta = [&](const char* name) {
    return after.counter(name) - before.counter(name);
  };
  // Every autocommit above went through the group-commit queue: one commit
  // per call, each in its own batch (a solo writer never lingers), all
  // durable by the time the call returned.
  EXPECT_EQ(delta("groupcommit.commits"), static_cast<uint64_t>(kCommits));
  EXPECT_EQ(delta("groupcommit.batches"), static_cast<uint64_t>(kCommits));
  EXPECT_GE(delta("groupcommit.fsyncs"), static_cast<uint64_t>(kCommits));
  EXPECT_EQ(after.gauge("groupcommit.async_pending"), 0);
  // The fence is a no-op when everything is already durable.
  ASSERT_OK(db_->WaitForDurable());
}

class AsyncCommitDatabaseTest : public DatabaseFixture {
 protected:
  void SetUp() override {
    DatabaseFixture::SetUp();
    SetUpRawType();
  }
  DatabaseOptions MakeOptions() override {
    DatabaseOptions options = DatabaseFixture::MakeOptions();
    options.storage.commit_mode = CommitMode::kAsync;
    return options;
  }
};

TEST_F(AsyncCommitDatabaseTest, AsyncCommitsAckEarlyAndFenceDrains) {
  const MetricsRegistry::Snapshot before = db_->MetricsSnapshot();
  constexpr int kCommits = 50;
  VersionId vid = MustPnew("async");
  for (int i = 1; i < kCommits; ++i) {
    ASSERT_OK(db_->UpdateLatest(vid.oid, Slice("async" + std::to_string(i))));
  }
  // Async commits ack at append time, so far fewer fsyncs than commits have
  // happened (only open/bootstrap syncs and background catch-up ticks).
  const MetricsRegistry::Snapshot acked = db_->MetricsSnapshot();
  EXPECT_EQ(acked.counter("groupcommit.commits") -
                before.counter("groupcommit.commits"),
            static_cast<uint64_t>(kCommits));
  EXPECT_LT(acked.counter("groupcommit.fsyncs") -
                before.counter("groupcommit.fsyncs"),
            static_cast<uint64_t>(kCommits));
  // The durability fence flushes the tail; afterwards nothing is pending
  // and the data is still there.
  ASSERT_OK(db_->WaitForDurable());
  EXPECT_EQ(db_->MetricsSnapshot().gauge("groupcommit.async_pending"), 0);
  EXPECT_EQ(MustReadLatest(vid.oid), "async" + std::to_string(kCommits - 1));
}

// A pool far smaller than the data forces evictions once pages are clean
// again; read caches are off so reads actually touch pages.
class SmallPoolDatabaseTest : public DatabaseFixture {
 protected:
  void SetUp() override {
    DatabaseFixture::SetUp();
    SetUpRawType();
  }
  DatabaseOptions MakeOptions() override {
    DatabaseOptions options = DatabaseFixture::MakeOptions();
    options.storage.buffer_pool_pages = 8;
    options.payload_cache_bytes = 0;
    options.latest_cache_entries = 0;
    options.metrics_sample_every = 1;  // Time every dereference.
    return options;
  }
};

TEST_F(SmallPoolDatabaseTest, StatsExposeBufferPoolEvictions) {
  std::vector<ObjectId> oids;
  for (int i = 0; i < 64; ++i) {
    oids.push_back(MustPnew(std::string(1024, 'a' + (i % 26))).oid);
  }
  // A fresh pool, then a scan over ~16 heap pages through 8 frames: the
  // misses past capacity must evict.
  ReopenDb();
  for (ObjectId oid : oids) MustReadLatest(oid);
  EXPECT_GT(db_->MetricsSnapshot().counter("bufferpool.evictions"), 0u);
}

TEST_F(SmallPoolDatabaseTest, MetricsSnapshotCoversTheStack) {
  const ObjectId oid = MustPnew("payload").oid;
  for (int i = 0; i < 10; ++i) MustReadLatest(oid);
  const MetricsRegistry::Snapshot snap = db_->MetricsSnapshot();
  EXPECT_EQ(snap.counter("core.pnew"), 1u);
  EXPECT_GT(snap.counter("txn.commits"), 0u);
  EXPECT_GT(snap.counter("wal.appends"), 0u);
  EXPECT_GT(snap.counter("bufferpool.misses"), 0u);

  // With metrics_sample_every = 1 every ReadLatest lands in the histogram.
  bool found = false;
  for (const auto& [name, h] : snap.histograms) {
    if (name == "core.deref_latest_ns") {
      found = true;
      EXPECT_GE(h.count, 10u);
      EXPECT_GT(h.max, 0u);
      EXPECT_LE(h.p50, static_cast<double>(h.max));
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(DatabaseTest, RegistrySnapshotsAreFreshWithoutHelp) {
  // The caches and the pool count per shard; their pull hooks sum those
  // counts into every snapshot, including one taken straight from the
  // registry (no Database call in between to refresh anything).
  const VersionId vid = MustPnew("fresh");
  const MetricsRegistry::Snapshot before =
      db_->metrics_registry().SnapshotAll();
  for (int i = 0; i < 3; ++i) {
    MustRead(vid);
    MustReadLatest(vid.oid);
  }
  const MetricsRegistry::Snapshot after =
      db_->metrics_registry().SnapshotAll();
  EXPECT_GE(after.counter("payload_cache.hits"),
            before.counter("payload_cache.hits") + 2);
  EXPECT_GE(after.counter("latest_cache.hits"),
            before.counter("latest_cache.hits") + 2);
  EXPECT_GT(after.counter("bufferpool.hits"),
            before.counter("bufferpool.hits"));
  EXPECT_GT(after.gauge("bufferpool.resident_pages"), 0);
}

TEST_F(DatabaseTest, MetricsSnapshotCarriesEveryBenchmarkCounter) {
  // A small mixed workload; afterwards every counter name the benchmark
  // harness (perfbench/src/harness.cc) reads must be in the snapshot, as a
  // counter, so a rename cannot silently zero a per-layer figure.
  const VersionId v1 = MustPnew(std::string(256, 'a'));
  auto v2 = db_->NewVersionOf(v1.oid);
  ASSERT_OK(v2.status());
  ASSERT_OK(db_->UpdateLatest(v1.oid, Slice(std::string(256, 'b'))));
  MustRead(v1);
  MustReadLatest(v1.oid);
  ASSERT_OK(db_->Checkpoint());
  MustRead(*v2);  // Cached, so the delete below invalidates an entry.
  ASSERT_OK(db_->PdeleteVersion(*v2));

  const MetricsRegistry::Snapshot snap = db_->MetricsSnapshot();
  std::set<std::string> counters;
  for (const auto& [name, value] : snap.counters) counters.insert(name);
  for (const char* name :
       {"payload_cache.hits", "payload_cache.misses", "payload_cache.evictions",
        "payload_cache.invalidations", "payload_cache.epoch_discards",
        "latest_cache.hits", "latest_cache.misses", "latest_cache.evictions",
        "latest_cache.invalidations", "latest_cache.epoch_discards",
        "bufferpool.hits", "bufferpool.misses", "bufferpool.evictions",
        "core.delta_applications", "core.delta_bytes_written",
        "payload_store.dedupe_hits", "payload_store.blobs_created",
        "btree.descents", "wal.append_bytes", "groupcommit.commits",
        "groupcommit.fsyncs", "txn.commits", "storage.checkpoints",
        "storage.page_writes"}) {
    EXPECT_EQ(counters.count(name), 1u) << "counter missing: " << name;
  }
  EXPECT_GT(snap.counter("storage.checkpoints"), 0u);
  EXPECT_GT(snap.counter("payload_cache.invalidations"), 0u);
}

TEST_F(DatabaseTest, TypeRegistrationIsIdempotent) {
  auto a = db_->RegisterType("Widget");
  auto b = db_->RegisterType("Widget");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
  auto c = db_->RegisterType("Gadget");
  ASSERT_TRUE(c.ok());
  EXPECT_NE(*a, *c);
}

TEST_F(DatabaseTest, LookupTypeDoesNotCreate) {
  auto missing = db_->LookupType("NeverRegistered");
  ASSERT_TRUE(missing.ok());
  EXPECT_FALSE(missing->has_value());
  ASSERT_TRUE(db_->RegisterType("Exists").ok());
  auto found = db_->LookupType("Exists");
  ASSERT_TRUE(found.ok());
  EXPECT_TRUE(found->has_value());
}

}  // namespace
}  // namespace ode
