#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/check.h"
#include "core/database.h"
#include "storage/payload_store.h"
#include "storage/storage_engine.h"
#include "tests/testing/crash_harness.h"
#include "tests/testing/db_fixture.h"
#include "util/random.h"

namespace ode {
namespace {

using testing_internal::DatabaseFixture;

/// Sum of physical payload bytes held by the content-addressed store.
uint64_t StoredBlobBytes(Database& db) {
  uint64_t bytes = 0;
  Status s = db.storage().WithReadTxn([&](ReadTxn& txn) -> Status {
    return db.storage().payload_store().ForEach(
        &txn, [&](const Hash128&, const PayloadStoreEntry& entry) {
          bytes += entry.size;
          return true;
        });
  });
  EXPECT_TRUE(s.ok()) << s;
  return bytes;
}

class DedupeTest : public DatabaseFixture {};

TEST_F(DedupeTest, DuplicateHeavyWorkloadSharesOneBlob) {
  SetUpRawType();
  Random rng(7);
  const std::string shared = rng.NextBytes(4096);
  constexpr int kObjects = 50;
  std::vector<ObjectId> oids;
  for (int i = 0; i < kObjects; ++i) {
    oids.push_back(MustPnew(shared).oid);
  }
  const MetricsRegistry::Snapshot stats = db_->MetricsSnapshot();
  EXPECT_EQ(stats.counter("payload_store.blobs_created"), 1u);
  EXPECT_EQ(stats.counter("payload_store.dedupe_hits"),
            static_cast<uint64_t>(kObjects - 1));
  EXPECT_EQ(stats.counter("payload_store.dedupe_bytes_saved"),
            static_cast<uint64_t>(kObjects - 1) * shared.size());
  // The acceptance bar: >= 2x stored-bytes reduction on duplicate-heavy
  // writes.  Here the logical write volume is kObjects payloads against ONE
  // stored copy.
  const uint64_t logical = static_cast<uint64_t>(kObjects) * shared.size();
  const uint64_t physical = StoredBlobBytes(*db_);
  EXPECT_EQ(physical, shared.size());
  EXPECT_GE(logical, 2 * physical);
  for (ObjectId oid : oids) {
    EXPECT_EQ(MustReadLatest(oid), shared);
  }
  auto report = CheckDatabase(*db_);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->ok()) << report->errors.front();
  EXPECT_EQ(report->payload_blobs_checked, 1u);
  EXPECT_EQ(report->payload_refs_checked, static_cast<uint64_t>(kObjects));
}

TEST_F(DedupeTest, DeletingSharersFreesBlobOnlyAtLastReference) {
  SetUpRawType();
  const std::string shared(2000, 's');
  std::vector<ObjectId> oids;
  for (int i = 0; i < 5; ++i) oids.push_back(MustPnew(shared).oid);
  for (int i = 0; i < 4; ++i) {
    ASSERT_OK(db_->PdeleteObject(oids[i]));
    EXPECT_EQ(db_->MetricsSnapshot().counter("payload_store.blobs_freed"), 0u)
        << "after delete " << i;
    EXPECT_EQ(MustReadLatest(oids.back()), shared);
  }
  ASSERT_OK(db_->PdeleteObject(oids.back()));
  EXPECT_EQ(db_->MetricsSnapshot().counter("payload_store.blobs_freed"), 1u);
  EXPECT_EQ(StoredBlobBytes(*db_), 0u);
  auto report = CheckDatabase(*db_);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->ok()) << report->errors.front();
}

TEST_F(DedupeTest, UpdateToSameContentKeepsSingleBlob) {
  SetUpRawType();
  const std::string content(1500, 'c');
  VersionId a = MustPnew(content);
  VersionId b = MustPnew("something else entirely");
  // Rewriting b with a's bytes must land on the shared blob, and the
  // update path must insert-before-release so the refcount never dips
  // through zero when content is unchanged.
  ASSERT_OK(db_->UpdateVersion(b, Slice(content)));
  ASSERT_OK(db_->UpdateVersion(a, Slice(content)));  // Same-content rewrite.
  EXPECT_EQ(MustRead(a), content);
  EXPECT_EQ(MustRead(b), content);
  const MetricsRegistry::Snapshot stats = db_->MetricsSnapshot();
  // Created: content + "something else"; freed: "something else".
  EXPECT_EQ(stats.counter("payload_store.blobs_created"), 2u);
  EXPECT_EQ(stats.counter("payload_store.blobs_freed"), 1u);
  auto report = CheckDatabase(*db_);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->ok()) << report->errors.front();
}

TEST_F(DedupeTest, DedupeSurvivesReopen) {
  SetUpRawType();
  const std::string shared(3000, 'r');
  ObjectId keep = MustPnew(shared).oid;
  ObjectId drop = MustPnew(shared).oid;
  ReopenDb();
  ASSERT_OK(db_->PdeleteObject(drop));
  EXPECT_EQ(MustReadLatest(keep), shared);
  EXPECT_EQ(StoredBlobBytes(*db_), shared.size());
  auto report = CheckDatabase(*db_);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->ok()) << report->errors.front();
}

/// Twin run: the same randomized operation sequence against a
/// content-addressed database and a plain one must produce byte-identical
/// logical state — dedupe is a physical optimization only.
struct Twin {
  MemEnv env;
  std::unique_ptr<Database> db;
  uint32_t type_id = 0;

  void Open(bool content_addressed, PayloadKind strategy) {
    DatabaseOptions options;
    options.storage.env = &env;
    options.storage.path = "/db";
    options.content_addressed_payloads = content_addressed;
    options.payload_strategy = strategy;
    options.delta_keyframe_interval = 4;
    auto opened = Database::Open(options);
    ASSERT_TRUE(opened.ok()) << opened.status();
    db = std::move(*opened);
    auto id = db->RegisterType("raw");
    ASSERT_TRUE(id.ok()) << id.status();
    type_id = *id;
  }
};

class DedupeTwinTest : public ::testing::TestWithParam<PayloadKind> {};

TEST_P(DedupeTwinTest, LogicalStateMatchesPlainStorage) {
  Twin ca, plain;
  ca.Open(/*content_addressed=*/true, GetParam());
  plain.Open(/*content_addressed=*/false, GetParam());

  Random rng(2026);
  // A small pool of payloads so duplicates are common.
  std::vector<std::string> pool;
  for (int i = 0; i < 8; ++i) pool.push_back(rng.NextBytes(500 + 100 * i));
  auto pick = [&]() -> const std::string& {
    return pool[rng.Uniform(pool.size())];
  };

  std::vector<ObjectId> live;
  for (int step = 0; step < 400; ++step) {
    const uint32_t op = rng.Uniform(10);
    if (op < 3 || live.empty()) {
      const std::string& payload = pick();
      auto v1 = ca.db->PnewRaw(ca.type_id, Slice(payload));
      auto v2 = plain.db->PnewRaw(plain.type_id, Slice(payload));
      ASSERT_TRUE(v1.ok()) << v1.status();
      ASSERT_TRUE(v2.ok()) << v2.status();
      ASSERT_EQ(v1->oid.value, v2->oid.value);
      live.push_back(v1->oid);
    } else {
      const ObjectId oid = live[rng.Uniform(live.size())];
      if (op < 6) {
        ASSERT_OK(ca.db->NewVersionOf(oid).status());
        ASSERT_OK(plain.db->NewVersionOf(oid).status());
      } else if (op < 8) {
        const std::string& payload = pick();
        ASSERT_OK(ca.db->UpdateLatest(oid, Slice(payload)));
        ASSERT_OK(plain.db->UpdateLatest(oid, Slice(payload)));
      } else if (op == 8) {
        auto latest = ca.db->Latest(oid);
        ASSERT_TRUE(latest.ok()) << latest.status();
        Status s1 = ca.db->PdeleteVersion(*latest);
        Status s2 = plain.db->PdeleteVersion(*latest);
        ASSERT_EQ(s1.ok(), s2.ok()) << s1 << " vs " << s2;
        auto exists = ca.db->ObjectExists(oid);
        ASSERT_TRUE(exists.ok());
        if (!*exists) {
          live.erase(std::find_if(live.begin(), live.end(),
                                  [&](ObjectId o) { return o == oid; }));
        }
      } else {
        ASSERT_OK(ca.db->PdeleteObject(oid));
        ASSERT_OK(plain.db->PdeleteObject(oid));
        live.erase(std::find_if(live.begin(), live.end(),
                                [&](ObjectId o) { return o == oid; }));
      }
    }
  }

  EXPECT_EQ(ode::testing::DumpState(*ca.db), ode::testing::DumpState(*plain.db));
  for (Database* db : {ca.db.get(), plain.db.get()}) {
    auto report = CheckDatabase(*db);
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_TRUE(report->ok()) << report->errors.front();
  }
  // The content-addressed twin must have actually deduplicated something on
  // this duplicate-heavy sequence.
  const char* kHits = "payload_store.dedupe_hits";
  EXPECT_GT(ca.db->MetricsSnapshot().counter(kHits), 0u);
  EXPECT_EQ(plain.db->MetricsSnapshot().counter(kHits), 0u);
}

INSTANTIATE_TEST_SUITE_P(Strategies, DedupeTwinTest,
                         ::testing::Values(PayloadKind::kFull,
                                           PayloadKind::kDelta));

}  // namespace
}  // namespace ode
