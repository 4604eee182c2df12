#include <gtest/gtest.h>

#include "core/database.h"
#include "tests/testing/db_fixture.h"
#include "util/random.h"

namespace ode {
namespace {

using testing_internal::DatabaseFixture;

/// Tests of the delta payload strategy (SCCS/RCS-style storage along the
/// derived-from relationship, §2 of the paper).
class DeltaStoreTest : public DatabaseFixture {
 protected:
  DatabaseOptions MakeOptions() override {
    DatabaseOptions options = DatabaseFixture::MakeOptions();
    options.payload_strategy = PayloadKind::kDelta;
    options.delta_keyframe_interval = 4;
    return options;
  }

  void SetUp() override {
    DatabaseFixture::SetUp();
    SetUpRawType();
  }
};

TEST_F(DeltaStoreTest, NewVersionStoresDelta) {
  VersionId v0 = MustPnew(std::string(2000, 'a'));
  auto v1 = db_->NewVersionOf(v0.oid);
  ASSERT_TRUE(v1.ok());
  auto meta = db_->Meta(*v1);
  ASSERT_TRUE(meta.ok());
  EXPECT_EQ(meta->kind, PayloadKind::kDelta);
  EXPECT_EQ(meta->delta_base, v0.vnum);
  EXPECT_EQ(meta->delta_chain_len, 1u);
  EXPECT_EQ(MustRead(*v1), std::string(2000, 'a'));
}

TEST_F(DeltaStoreTest, RootVersionIsAlwaysFull) {
  VersionId v0 = MustPnew("root");
  auto meta = db_->Meta(v0);
  ASSERT_TRUE(meta.ok());
  EXPECT_EQ(meta->kind, PayloadKind::kFull);
}

TEST_F(DeltaStoreTest, KeyframeBoundsChainLength) {
  VersionId current = MustPnew(std::string(1000, 'k'));
  for (int i = 0; i < 20; ++i) {
    auto next = db_->NewVersionFrom(current);
    ASSERT_TRUE(next.ok());
    auto meta = db_->Meta(*next);
    ASSERT_TRUE(meta.ok());
    EXPECT_LE(meta->delta_chain_len, 4u) << "at depth " << i;
    current = *next;
  }
  EXPECT_EQ(MustRead(current), std::string(1000, 'k'));
}

TEST_F(DeltaStoreTest, SmallEditsStoredAsSmallDeltas) {
  Random rng(9);
  std::string content = rng.NextBytes(8000);
  VersionId v0 = MustPnew(content);
  const auto full_bytes = [&] {
    return db_->MetricsSnapshot().counter("core.full_bytes_written");
  };
  const uint64_t full_bytes_before = full_bytes();
  auto v1 = db_->NewVersionOf(v0.oid);
  ASSERT_TRUE(v1.ok());
  content[100] ^= 0x20;  // One-byte edit.
  ASSERT_OK(db_->UpdateVersion(*v1, Slice(content)));
  EXPECT_EQ(full_bytes(), full_bytes_before)
      << "the edit should have been stored as a delta";
  EXPECT_EQ(MustRead(*v1), content);
  EXPECT_EQ(MustRead(v0).size(), 8000u);
}

TEST_F(DeltaStoreTest, DissimilarUpdateFallsBackToFull) {
  Random rng(10);
  VersionId v0 = MustPnew(rng.NextBytes(4000));
  auto v1 = db_->NewVersionOf(v0.oid);
  ASSERT_TRUE(v1.ok());
  const std::string unrelated = rng.NextBytes(4000);
  ASSERT_OK(db_->UpdateVersion(*v1, Slice(unrelated)));
  auto meta = db_->Meta(*v1);
  ASSERT_TRUE(meta.ok());
  EXPECT_EQ(meta->kind, PayloadKind::kFull)
      << "a delta bigger than the ratio limit must be stored full";
  EXPECT_EQ(MustRead(*v1), unrelated);
}

TEST_F(DeltaStoreTest, UpdatingDeltaBaseRematerializesChildren) {
  Random rng(11);
  const std::string original = rng.NextBytes(3000);
  VersionId v0 = MustPnew(original);
  auto v1 = db_->NewVersionOf(v0.oid);  // Delta on v0.
  ASSERT_TRUE(v1.ok());
  // Rewrite v0 entirely: v1 must still read as `original`.
  ASSERT_OK(db_->UpdateVersion(v0, Slice("completely new v0")));
  EXPECT_EQ(MustRead(*v1), original);
  auto meta = db_->Meta(*v1);
  ASSERT_TRUE(meta.ok());
  EXPECT_EQ(meta->kind, PayloadKind::kFull);
}

TEST_F(DeltaStoreTest, DeletingDeltaBasePreservesChildren) {
  Random rng(12);
  const std::string original = rng.NextBytes(3000);
  VersionId v0 = MustPnew(original);
  auto v1 = db_->NewVersionOf(v0.oid);
  ASSERT_TRUE(v1.ok());
  auto v2 = db_->NewVersionFrom(v0);
  ASSERT_TRUE(v2.ok());
  ASSERT_OK(db_->PdeleteVersion(v0));
  EXPECT_EQ(MustRead(*v1), original);
  EXPECT_EQ(MustRead(*v2), original);
}

TEST_F(DeltaStoreTest, BranchedDeltasMaterializeIndependently) {
  Random rng(13);
  std::string base = rng.NextBytes(5000);
  VersionId v0 = MustPnew(base);
  auto v1 = db_->NewVersionFrom(v0);
  auto v2 = db_->NewVersionFrom(v0);
  ASSERT_TRUE(v1.ok() && v2.ok());
  std::string alt1 = base;
  alt1.replace(100, 10, "ALTERNATE1");
  std::string alt2 = base;
  alt2.replace(4000, 10, "ALTERNATE2");
  ASSERT_OK(db_->UpdateVersion(*v1, Slice(alt1)));
  ASSERT_OK(db_->UpdateVersion(*v2, Slice(alt2)));
  EXPECT_EQ(MustRead(*v1), alt1);
  EXPECT_EQ(MustRead(*v2), alt2);
  EXPECT_EQ(MustRead(v0), base);
}

TEST_F(DeltaStoreTest, DeltaWritesFarSmallerThanFullCopies) {
  // The headline storage claim: N versions of a large object with small
  // edits cost far less under delta storage than N full copies would.
  Random rng(14);
  std::string content = rng.NextBytes(16384);
  VersionId current = MustPnew(content);
  const ObjectId oid = current.oid;
  for (int i = 0; i < 16; ++i) {
    auto next = db_->NewVersionOf(oid);
    ASSERT_TRUE(next.ok());
    content[rng.Uniform(content.size())] ^= 1;
    ASSERT_OK(db_->UpdateLatest(oid, Slice(content)));
    current = *next;
  }
  const MetricsRegistry::Snapshot stats = db_->MetricsSnapshot();
  // Full bytes: the root version + periodic keyframes.  Delta bytes: the
  // rest.  Together they must be far below 17 full copies.
  const uint64_t total = stats.counter("core.full_bytes_written") +
                         stats.counter("core.delta_bytes_written");
  EXPECT_LT(total, 17u * 16384u / 2);
  EXPECT_EQ(MustRead(current), content);
}

TEST_F(DeltaStoreTest, StatsDistinguishFullAndDelta) {
  VersionId v0 = MustPnew(std::string(1000, 'z'));
  auto v1 = db_->NewVersionOf(v0.oid);
  ASSERT_TRUE(v1.ok());
  const MetricsRegistry::Snapshot after_create = db_->MetricsSnapshot();
  EXPECT_GE(after_create.counter("core.full_payloads_written"), 1u);
  EXPECT_GE(after_create.counter("core.delta_payloads_written"), 1u);
  // newversion takes the identity-delta fast path: NO materialization.
  EXPECT_EQ(after_create.counter("core.materializations"), 0u);
  // Reading the delta version materializes through the chain.
  EXPECT_EQ(MustRead(*v1), std::string(1000, 'z'));
  EXPECT_GT(db_->MetricsSnapshot().counter("core.materializations"), 0u);
  EXPECT_GT(db_->MetricsSnapshot().counter("core.delta_applications"), 0u);
}

/// The full-copy strategy (default) never writes deltas.
class FullCopyStoreTest : public DatabaseFixture {
 protected:
  void SetUp() override {
    DatabaseFixture::SetUp();
    SetUpRawType();
  }
};

TEST_F(FullCopyStoreTest, AllPayloadsAreFull) {
  VersionId v0 = MustPnew(std::string(500, 'f'));
  auto v1 = db_->NewVersionOf(v0.oid);
  ASSERT_TRUE(v1.ok());
  auto v2 = db_->NewVersionFrom(*v1);
  ASSERT_TRUE(v2.ok());
  for (VersionId vid : {v0, *v1, *v2}) {
    auto meta = db_->Meta(vid);
    ASSERT_TRUE(meta.ok());
    EXPECT_EQ(meta->kind, PayloadKind::kFull);
  }
  EXPECT_EQ(db_->MetricsSnapshot().counter("core.delta_payloads_written"), 0u);
}

}  // namespace
}  // namespace ode
