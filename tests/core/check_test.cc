#include "core/check.h"
#include "storage/fault_env.h"

#include <gtest/gtest.h>

#include "tests/testing/db_fixture.h"
#include "util/random.h"

namespace ode {
namespace {

using testing_internal::DatabaseFixture;

class CheckTest : public DatabaseFixture {
 protected:
  void SetUp() override {
    DatabaseFixture::SetUp();
    SetUpRawType();
  }

  void ExpectConsistent() {
    auto report = CheckDatabase(*db_);
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_TRUE(report->ok()) << report->errors.front();
  }
};

TEST_F(CheckTest, EmptyDatabaseIsConsistent) {
  auto report = CheckDatabase(*db_);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok());
  EXPECT_EQ(report->objects_checked, 0u);
}

TEST_F(CheckTest, SimpleGraphIsConsistent) {
  VersionId v0 = MustPnew("v0");
  auto v1 = db_->NewVersionFrom(v0);
  auto v2 = db_->NewVersionFrom(v0);
  ASSERT_TRUE(v1.ok() && v2.ok());
  auto report = CheckDatabase(*db_);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok());
  EXPECT_EQ(report->objects_checked, 1u);
  EXPECT_EQ(report->versions_checked, 3u);
}

TEST_F(CheckTest, ConsistentAfterHeavyChurn) {
  Random rng(1);
  std::vector<VersionId> pool;
  for (int op = 0; op < 400; ++op) {
    if (pool.empty() || rng.OneIn(4)) {
      pool.push_back(MustPnew(rng.NextBytes(rng.Range(0, 500))));
    } else {
      VersionId base = pool[rng.Uniform(pool.size())];
      auto exists = db_->VersionExists(base);
      ASSERT_TRUE(exists.ok());
      if (!*exists) continue;
      switch (rng.Uniform(3)) {
        case 0: {
          auto vid = db_->NewVersionFrom(base);
          ASSERT_TRUE(vid.ok());
          pool.push_back(*vid);
          break;
        }
        case 1:
          ASSERT_OK(db_->UpdateVersion(base, Slice(rng.NextBytes(300))));
          break;
        case 2:
          ASSERT_OK(db_->PdeleteVersion(base));
          break;
      }
    }
  }
  ExpectConsistent();
}

TEST_F(CheckTest, ConsistentWithDeltaStrategyAfterChurn) {
  db_.reset();
  DatabaseOptions options = MakeOptions();
  options.payload_strategy = PayloadKind::kDelta;
  options.delta_keyframe_interval = 3;
  auto db = Database::Open(options);
  ASSERT_TRUE(db.ok());
  db_ = std::move(*db);
  SetUpRawType();

  Random rng(2);
  VersionId current = MustPnew(rng.NextBytes(2000));
  for (int i = 0; i < 50; ++i) {
    auto next = db_->NewVersionFrom(current);
    ASSERT_TRUE(next.ok());
    if (rng.OneIn(3)) {
      ASSERT_OK(db_->UpdateVersion(*next, Slice(rng.NextBytes(2000))));
    }
    if (rng.OneIn(5)) {
      ASSERT_OK(db_->PdeleteVersion(current));
    }
    current = *next;
  }
  ExpectConsistent();
}

TEST_F(CheckTest, ConsistentAfterCrashRecovery) {
  // Re-create the fixture over a fault env, crash mid-transaction, verify.
  FaultInjectionEnv fault_env(nullptr);
  DatabaseOptions options;
  options.storage.env = &fault_env;
  options.storage.path = "/crash";
  options.clock = &clock_;
  {
    auto db = Database::Open(options);
    ASSERT_TRUE(db.ok());
    auto type = (*db)->RegisterType("raw");
    ASSERT_TRUE(type.ok());
    auto v0 = (*db)->PnewRaw(*type, Slice("committed"));
    ASSERT_TRUE(v0.ok());
    ASSERT_TRUE((*db)->NewVersionOf(v0->oid).ok());
    ASSERT_OK((*db)->Begin());
    ASSERT_TRUE((*db)->PnewRaw(*type, Slice("uncommitted")).ok());
    fault_env.CrashAndLoseUnsynced();
  }
  auto db = Database::Open(options);
  ASSERT_TRUE(db.ok());
  auto report = CheckDatabase(**db);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->errors.front();
  EXPECT_EQ(report->objects_checked, 1u);
  EXPECT_EQ(report->versions_checked, 2u);
}

// Pass 4 audits B+tree node layout page by page: a leaf whose fragmented
// count no longer matches its dead bytes (the field in-place inserts trust
// to decide whether compaction makes room) is reported, not accepted.
TEST_F(CheckTest, FlagsBTreeNodeWithWrongFragmentedCount) {
  MemEnv env;
  DatabaseOptions options;
  options.storage.env = &env;
  options.storage.path = "/nodes";
  options.clock = &clock_;
  {
    ASSERT_OK_AND_ASSIGN(auto db, Database::Open(options));
    ASSERT_OK_AND_ASSIGN(uint32_t type, db->RegisterType("raw"));
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(db->PnewRaw(type, Slice(std::string(100, 'x'))).ok());
    }
    ASSERT_OK_AND_ASSIGN(CheckReport clean, CheckDatabase(*db));
    EXPECT_TRUE(clean.ok()) << clean.errors.front();
    EXPECT_GT(clean.btree_nodes_checked, 0u);
  }
  ASSERT_OK_AND_ASSIGN(auto file, env.OpenFile("/nodes/data.odb"));
  ASSERT_OK_AND_ASSIGN(uint64_t size, file->Size());
  std::string scratch;
  Slice bytes;
  ASSERT_OK(file->Read(0, size, &scratch, &bytes));
  std::string image = bytes.ToString();
  bool corrupted = false;
  for (size_t off = kPageSize; off + kPageSize <= image.size();
       off += kPageSize) {
    if (static_cast<uint8_t>(image[off]) ==
        static_cast<uint8_t>(PageType::kBTreeLeaf)) {
      image[off + 12] = static_cast<char>(image[off + 12] + 1);
      corrupted = true;
      break;
    }
  }
  ASSERT_TRUE(corrupted);
  ASSERT_OK(file->Write(0, Slice(image)));

  ASSERT_OK_AND_ASSIGN(auto db, Database::Open(options));
  ASSERT_OK_AND_ASSIGN(CheckReport report, CheckDatabase(*db));
  ASSERT_FALSE(report.ok());
  bool named = false;
  for (const std::string& e : report.errors) {
    if (e.find("fragmented") != std::string::npos) named = true;
  }
  EXPECT_TRUE(named) << report.errors.front();
}

TEST_F(CheckTest, CountsPayloadBytes) {
  MustPnew(std::string(1000, 'a'));
  MustPnew(std::string(500, 'b'));
  auto report = CheckDatabase(*db_);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->payload_bytes, 1500u);
}

}  // namespace
}  // namespace ode
